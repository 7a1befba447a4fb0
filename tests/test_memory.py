"""Dual-timescale memory: gated fast updates, the dual read, and
transported slow writes."""

import numpy as np
import pytest

from lpcsm.numerics import Tensor, ParameterStore, concat, grad_check, linear
from lpcsm.memory import (MemoryState, _chunk_reads, _open_chunk_sum,
                          fast_update, memory_read, slow_write)
from lpcsm.ont import ZERO_NORM_FLOOR, transport_array

import reference_ops as ops


def logistic(x):
    """Reference logistic function, independent of the code under test."""
    return 1.0 / (1.0 + np.exp(-x))


def zeros(d):
    return Tensor(np.zeros(d))


def write_once(h, c, slow, alpha_n, ont_enabled, params):
    """One slow write of summary c gated by row h: a one-row chunk of
    size 1, whose mean is c."""
    d = slow.shape[0]
    state = MemoryState(zeros(d), slow, zeros(d))
    slow_write(ops.reshape(c, (1, d)), ops.reshape(h, (1, d)), state, 1, alpha_n,
               ont_enabled, params)
    return state.slow


def reference_transport(alpha_n, c, m):
    """c + alpha * novelty of c against m, from Tensor ops, so that its
    gradient is the tape's own; (1 + alpha) c below the zero floor."""
    if np.linalg.norm(m.data) < ZERO_NORM_FLOOR:
        return c * (1.0 + alpha_n)
    return c + ops.sub(c, m * ops.div((c * m).sum(), (m * m).sum())) * alpha_n


def reference_writes(fast, n, ends, chunk_sum, slow, chunk_size, alpha_n,
                     ont_enabled, p):
    """The writes of a span one chunk at a time, from Tensor ops: the mean
    fast state, the transport, then the gated write."""
    states, start = [], 0
    for end in ends:
        mean = (chunk_sum + fast[start:end].sum(axis=0)) * (1.0 / chunk_size)
        c = (reference_transport(alpha_n, mean, slow)
             if ont_enabled and alpha_n != 0.0 else mean)
        g = ops.sigmoid(linear(n[end - 1], p["mem.w_g"], p["mem.b_g"]))
        u = ops.tanh(linear(c, p["mem.w_c"], p["mem.b_c"]))
        slow = g * slow + ops.sub(1.0, g) * u
        states.append(ops.reshape(slow, (1, -1)))
        chunk_sum, start = zeros(slow.shape[0]), end
    return concat(states)


def reference_reads(fast, n, chunk_count, chunk_sum, slow, chunk_size,
                    alpha_n, ont_enabled, p):
    """The slow state each row of a span reads, and the one after the
    span, from `reference_writes`: row t reads the state of its chunk,
    the one before the span until the first boundary closes, then the
    one after each write."""
    t_len, d = fast.shape
    ends = list(range(chunk_size - chunk_count, t_len + 1, chunk_size))
    if not ends:
        return slow, slow
    states = concat([ops.reshape(slow, (1, d)),
                     reference_writes(fast, n, ends, chunk_sum, slow,
                                      chunk_size, alpha_n, ont_enabled, p)])
    return (states[[sum(end <= t for end in ends) for t in range(t_len)]],
            states[len(ends)])


def make_params(d, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    params = ParameterStore()

    def mat(name, rows, cols):
        val = np.zeros((rows, cols)) if zero else rng.standard_normal((rows, cols)) / np.sqrt(rows)
        params.add(name, val)

    for gate in ("w_d", "w_u", "w_qf", "w_qs", "w_g", "w_c"):
        mat("mem." + gate, d, d)
    for gate in ("b_d", "b_u", "b_qf", "b_qs", "b_g", "b_c"):
        params.add("mem." + gate, np.zeros(d))
    mat("mem.w_r", 2 * d, d)
    params.add("mem.b_r", np.zeros(d))
    return params


class TestFastUpdate:
    def test_zero_weights_half_decay(self):
        d = 4
        params = make_params(d, zero=True)
        prev = Tensor(np.arange(1.0, 5.0))
        new = fast_update(Tensor(np.ones(d)), prev, params)
        assert np.max(np.abs(new.data - 0.5 * prev.data)) < 1e-15

    def test_full_write_limit(self):
        d = 4
        params = make_params(d, zero=True)
        params["mem.b_d"].data = np.full(d, -40.0)
        rng = np.random.default_rng(1)
        params["mem.w_u"].data = rng.standard_normal((d, d))
        h = Tensor(rng.standard_normal(d))
        new = fast_update(h, zeros(d), params)
        expect = np.tanh(h.data @ params["mem.w_u"].data)
        assert np.max(np.abs(new.data - expect)) < 1e-12

    def test_formula_reevaluation(self):
        d = 6
        params = make_params(d, seed=2)
        rng = np.random.default_rng(3)
        h = rng.standard_normal(d)
        prev = rng.standard_normal(d)
        new = fast_update(Tensor(h), Tensor(prev), params)
        dgate = logistic(h @ params["mem.w_d"].data + params["mem.b_d"].data)
        u = np.tanh(h @ params["mem.w_u"].data + params["mem.b_u"].data)
        expect = dgate * prev + (1 - dgate) * u
        assert np.max(np.abs(new.data - expect)) < 1e-12

    def test_boundedness(self):
        # With |prev| <= 1 the convex gate keeps the state inside [-1, 1].
        d = 4
        params = make_params(d, seed=4)
        state = zeros(d)
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = fast_update(Tensor(rng.standard_normal(d) * 3), state, params)
            assert np.all(np.abs(state.data) <= 1.0)


class TestFastSpan:
    def test_span_matches_tokenwise_loop(self):
        d = 6
        params = make_params(d, seed=21)
        rng = np.random.default_rng(22)
        hs = rng.standard_normal((20, d)) * 2
        prev = rng.uniform(-1, 1, d)
        rows = fast_update(Tensor(hs), Tensor(prev), params).data
        assert rows.shape == (20, d)
        f = prev
        for t, h in enumerate(hs):
            dgate = logistic(h @ params["mem.w_d"].data + params["mem.b_d"].data)
            u = np.tanh(h @ params["mem.w_u"].data + params["mem.b_u"].data)
            f = dgate * f + (1 - dgate) * u
            assert np.max(np.abs(rows[t] - f)) < 1e-12

    def test_span_read_matches_rowwise(self):
        d = 5
        params = make_params(d, seed=24)
        rng = np.random.default_rng(25)
        h, f, s = (rng.standard_normal((4, d)) for _ in range(3))
        span = memory_read(Tensor(h), Tensor(f), Tensor(s), params).data
        for t in range(4):
            row = memory_read(Tensor(h[t]), Tensor(f[t]), Tensor(s[t]), params).data
            assert np.max(np.abs(span[t] - row)) < 1e-12


class TestMemoryRead:
    def test_zero_states_zero_read(self):
        d = 4
        params = make_params(d, seed=6)
        out = memory_read(Tensor(np.ones(d)), zeros(d), zeros(d), params)
        assert np.array_equal(out.data, np.zeros(d))

    def test_slow_ablated_uses_fast_half_only(self):
        d = 4
        params = make_params(d, seed=7)
        rng = np.random.default_rng(8)
        h = Tensor(rng.standard_normal(d))
        fast = Tensor(rng.standard_normal(d))
        base = memory_read(h, fast, zeros(d), params).data
        # Changing the slow half of w_r cannot matter when slow = 0.
        params["mem.w_r"].data[d:] += 1.0
        again = memory_read(h, fast, zeros(d), params).data
        assert np.array_equal(base, again)

    def test_formula_reevaluation(self):
        d = 5
        params = make_params(d, seed=9)
        rng = np.random.default_rng(10)
        h, f, s = (rng.standard_normal(d) for _ in range(3))
        out = memory_read(Tensor(h), Tensor(f), Tensor(s), params).data
        qf = logistic(h @ params["mem.w_qf"].data + params["mem.b_qf"].data)
        qs = logistic(h @ params["mem.w_qs"].data + params["mem.b_qs"].data)
        gated = np.concatenate([qf * f, qs * s])
        expect = gated @ params["mem.w_r"].data + params["mem.b_r"].data
        assert np.max(np.abs(out - expect)) < 1e-12


class TestSlowWrite:
    def test_zero_slow_uses_amplified_summary(self):
        d = 3
        params = make_params(d, seed=12)
        rng = np.random.default_rng(13)
        c = rng.standard_normal(d)
        h = rng.standard_normal(d)
        new = write_once(Tensor(h), Tensor(c), zeros(d),
                         alpha_n=0.5, ont_enabled=True, params=params)
        g = logistic(h @ params["mem.w_g"].data + params["mem.b_g"].data)
        u = np.tanh(1.5 * c @ params["mem.w_c"].data + params["mem.b_c"].data)
        expect = (1 - g) * u  # old slow state is zero
        assert np.max(np.abs(new.data - expect)) < 1e-12

    def test_full_retain_gate(self):
        d = 3
        params = make_params(d, seed=14)
        params["mem.b_g"].data = np.full(d, 40.0)
        rng = np.random.default_rng(15)
        slow = Tensor(rng.standard_normal(d))
        new = write_once(Tensor(rng.standard_normal(d)),
                         Tensor(rng.standard_normal(d)), slow,
                         alpha_n=0.5, ont_enabled=True, params=params)
        assert np.max(np.abs(new.data - slow.data)) < 1e-12

    def test_alpha_zero_matches_disabled(self):
        d = 4
        params = make_params(d, seed=16)
        rng = np.random.default_rng(17)
        slow = Tensor(rng.standard_normal(d))
        h = Tensor(rng.standard_normal(d))
        c = Tensor(rng.standard_normal(d))
        on = write_once(h, c, slow, alpha_n=0.0, ont_enabled=True, params=params)
        off = write_once(h, c, slow, alpha_n=0.0, ont_enabled=False, params=params)
        assert np.array_equal(on.data, off.data)

    def test_write_feasibility_lifted(self):
        # The transported summary keeps its inner product with the slow state.
        rng = np.random.default_rng(18)
        for _ in range(20):
            c, m = rng.standard_normal(5), rng.standard_normal(5)
            t = transport_array(0.5, c, m)
            assert abs(t @ m - c @ m) < 1e-10 * max(1.0, abs(c @ m))

    def test_grad_through_chain(self):
        d = 4
        params = make_params(d, seed=19)
        rng = np.random.default_rng(20)
        hs = rng.standard_normal((3, d))

        def loss(p):
            fast, slow, chunk = zeros(d), zeros(d), zeros(d)
            reads = Tensor(0.0)
            for i, h in enumerate(hs):
                ht = Tensor(h)
                fast = fast_update(ht, fast, p)
                r = memory_read(ht, fast, slow, p)
                reads = reads + (r * r).sum()
                chunk = chunk + fast
                if i % 2 == 1:
                    slow = write_once(ht, chunk * 0.5, slow, 0.5, True, p)
                    chunk = zeros(d)
            return reads + (slow * slow).sum()

        assert grad_check(loss, params, sample=6).passed


# (chunk_count of the open chunk, chunk_sum and slow nonzero, alpha_n, ont)
SPANS = {
    "fresh cache": (0, False, 0.5, True),
    "starts mid-chunk": (2, True, 0.5, True),
    "ont off": (2, True, 0.5, False),
    "alpha zero": (2, True, 0.0, True),
    "closes no chunk": (2, True, 0.5, True, 1),
}


def span_inputs(case, seed=30, d=5, t_len=13, chunk_size=4):
    """A span store: the memory parameters plus its fast rows, normed rows,
    carried chunk sum and slow state; and the span's settings."""
    chunk_count, carried, alpha_n, ont, *short = SPANS[case]
    t_len = short[0] if short else t_len
    params = make_params(d, seed=seed)
    rng = np.random.default_rng(seed + 1)
    params.add("fast", rng.uniform(-1, 1, (t_len, d)))
    params.add("n", rng.standard_normal((t_len, d)))
    params.add("chunk_sum", rng.uniform(-1, 1, d) * carried * chunk_count)
    params.add("slow", rng.uniform(-1, 1, d) * carried)
    return params, (chunk_count, chunk_size, alpha_n, ont)


def span_reads(p, spec):
    """slow_write's reads and the state it leaves, from a MemoryState
    that holds the store's carried sum and slow state."""
    chunk_count, chunk_size, alpha_n, ont = spec
    state = MemoryState(zeros(p["slow"].shape), p["slow"], p["chunk_sum"],
                        chunk_count)
    rows, writes = slow_write(p["fast"], p["n"], state, chunk_size, alpha_n,
                              ont, p)
    return rows, state, writes


class TestSlowWriteSpan:
    @pytest.mark.parametrize("case", sorted(SPANS))
    def test_matches_per_chunk_reference(self, case):
        params, spec = span_inputs(case)
        chunk_count, chunk_size, alpha_n, ont = spec
        t_len = params["fast"].shape[0]
        rng = np.random.default_rng(40)
        weights, last_weights = rng.standard_normal((t_len, 5)), rng.standard_normal(5)

        def run(fn):
            params.zero_grad()
            rows, final = fn(params)
            ((rows * weights).sum() + (final * last_weights).sum()).backward()
            return rows, final, {name: t.grad for name, t in params.items()}

        def fused(p):
            rows, state, writes = span_reads(p, spec)
            ends = range(chunk_size - chunk_count, t_len + 1, chunk_size)
            assert writes == len(ends)
            # The open chunk after the span: its length and fast-state sum.
            open_rows = (chunk_count + t_len) % chunk_size
            carried = p["chunk_sum"].data if not writes else 0.0
            assert state.chunk_count == open_rows
            assert np.max(np.abs(state.chunk_sum.data - carried - p["fast"].data[
                t_len - open_rows:].sum(axis=0))) < 1e-12
            if writes:  # the whole span is one write node and one gather
                assert rows._prev[0]._prev[0] is p["fast"]
            return rows, state.slow

        rows, final, grads = run(fused)
        ref_rows, ref_final, ref_grads = run(
            lambda p: reference_reads(p["fast"], p["n"], chunk_count,
                                      p["chunk_sum"], p["slow"], *spec[1:], p))
        assert np.array_equal(rows.data, ref_rows.data)
        assert np.array_equal(final.data, ref_final.data)
        for name, g in grads.items():
            assert (g is None) == (ref_grads[name] is None), name
            if g is not None:
                assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name

    # A fresh cache's zero slow state sits on the transport's zero-reference
    # branch, which a finite difference in it leaves.
    @pytest.mark.parametrize("case", sorted(set(SPANS) - {"fresh cache"}))
    def test_grad_check(self, case):
        params, spec = span_inputs(case, seed=50)
        weights = np.random.default_rng(51).standard_normal(
            params["fast"].shape)

        def loss(p):
            rows, state, _ = span_reads(p, spec)
            return (rows * rows * weights).sum() + (state.slow * state.slow).sum()

        assert grad_check(loss, params).passed

    def test_batch_matches_rows(self):
        # Row 1 carries a zero slow state, so the first write of the batch
        # mixes the transport's zero-reference and normal branches. The
        # gate and write matmuls over [B, d] rows may round an ulp apart
        # from one row's (BLAS picks its kernel by shape), so the states
        # agree to 1e-15 rather than bit for bit.
        d, t_len, chunk_size, batch = 5, 13, 4, 3
        params = make_params(d, seed=60)
        rng = np.random.default_rng(61)
        fast = rng.uniform(-1, 1, (batch, t_len, d))
        n = rng.standard_normal((batch, t_len, d))
        chunk_sum = rng.uniform(-1, 1, (batch, d)) * 2
        slow = rng.uniform(-1, 1, (batch, d))
        slow[1] = 0.0
        weights = rng.standard_normal((batch, t_len, d))
        names = ("mem.w_g", "mem.b_g", "mem.w_c", "mem.b_c")

        def run(rows):
            params.zero_grad()
            inputs = [Tensor(x[rows], requires_grad=True)
                      for x in (fast, n, chunk_sum, slow)]
            state = MemoryState(zeros(d), inputs[3], inputs[2], 2)
            reads, _ = slow_write(*inputs[:2], state, chunk_size, 0.5, True,
                                  params)
            (reads * weights[rows]).sum().backward()
            return reads.data, ([x.grad for x in inputs],
                                [params[k].grad.copy() for k in names])

        reads, (grads, weight_grads) = run(slice(None))
        row_sums = [np.zeros_like(g) for g in weight_grads]
        for i in range(batch):
            row_reads, (row_grads, row_weight_grads) = run(i)
            assert np.max(np.abs(reads[i] - row_reads)) < 1e-15
            for g, row_g in zip(grads, row_grads):
                assert np.max(np.abs(g[i] - row_g)) < 1e-12
            for total, row_g in zip(row_sums, row_weight_grads):
                total += row_g
        for name, g, total in zip(names, weight_grads, row_sums):
            assert np.max(np.abs(g - total)) < 1e-12, name


class TestChunkReads:
    # (leading axes, T, d, chunk ends): a first chunk shorter than the
    # rest, a span that ends on a boundary, one row per chunk, chunks of 16
    # rows, which numpy sums pairwise along an inner axis, and d = 1,
    # where the rows' axis is the inner one.
    CASES = [((), 13, 5, [3, 7, 11]), ((2,), 13, 5, [3, 7, 11]),
             ((), 8, 4, [4, 8]), ((2,), 6, 3, [1, 2, 3, 4, 5, 6]),
             ((2,), 40, 4, [16, 32]), ((), 40, 1, [3, 19, 35]),
             ((3,), 40, 1, [16, 32]), ((), 5, 1, [1, 2, 3])]

    @pytest.mark.parametrize("lead,t_len,d,ends", CASES)
    @pytest.mark.parametrize("layout", ["contiguous", "transposed"])
    def test_backward_is_add_at(self, lead, t_len, d, ends, layout):
        # Each state's gradient is its rows' sum in row order from +0.0,
        # as np.add.at (a Tensor gather's backward) gives it, whatever the
        # layout of the incoming gradient.
        rng = np.random.default_rng(70 + t_len)
        states = rng.standard_normal(lead + (len(ends) + 1, d))
        g = rng.standard_normal(lead + (t_len, d)) * 1e3
        g[..., :2, 0] = -0.0  # a chunk of -0.0 rows sums to +0.0
        if layout == "transposed":
            g = np.ascontiguousarray(np.swapaxes(g, -1, -2)).swapaxes(-1, -2)
        index = np.searchsorted(ends, np.arange(t_len), side="right")
        grads = []
        for gather in (lambda s: _chunk_reads(s, ends, t_len),
                       lambda s: s[..., index, :]):
            s = Tensor(states, requires_grad=True)
            out = gather(s)
            out._backward(g)
            grads.append((out.data.tobytes(), s.grad.tobytes()))
        assert grads[0] == grads[1]


class TestOpenChunkSum:
    @pytest.mark.parametrize("lead,t_len", [((), 7), ((3,), 7), ((), 1)])
    @pytest.mark.parametrize("start", [0, 3])
    @pytest.mark.parametrize("carried", [False, True])
    def test_node_matches_op_chain(self, lead, t_len, start, carried):
        # One node gives the value and gradient bytes of
        # `carried + fast[..., start:, :].sum(axis=-2)` as Tensor ops,
        # -0.0 entries of the incoming gradient included.
        start = min(start, t_len - 1)
        rng = np.random.default_rng(80 + t_len + start)
        fast0 = rng.standard_normal(lead + (t_len, 4))
        carry0 = rng.standard_normal(lead + (4,))
        g = rng.standard_normal(lead + (4,))
        g[..., 0] = -0.0
        outcomes = []
        for fused in (True, False):
            fast = Tensor(fast0, requires_grad=True)
            carry = Tensor(carry0, requires_grad=True) if carried else None
            if fused:
                out = _open_chunk_sum(fast, start, carry)
            else:
                out = fast[..., start:, :].sum(axis=-2)
                out = carry + out if carried else out
            (out * Tensor(g)).sum().backward()
            outcomes.append([out.data.tobytes(), fast.grad.tobytes()]
                            + ([carry.grad.tobytes()] if carried else []))
        assert outcomes[0] == outcomes[1]
