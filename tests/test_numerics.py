"""Autodiff core: primitive gradients against finite differences, the
norm helper, and the gradient-check harness itself."""

import ast
from pathlib import Path

import numpy as np
import pytest

import lpcsm
from lpcsm.attention import local_attention
from lpcsm.controller import ControllerParams
from lpcsm.memory import fast_update, memory_read
from lpcsm.model import causal_mask_bits
from lpcsm.numerics import (
    Tensor, NumericsError, no_grad, concat,
    straight_through, gated_scan, linear, rmsnorm, ParameterStore,
    forward_backward, grad_check, check_finite, sigmoid, _accum,
)

import reference_ops as ops
from reference_mechanisms import scan_node

SRC = Path(lpcsm.__file__).parent


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_op(build, shape, seed, tol=1e-5):
    """Compare reverse-mode and numeric gradients of build(Tensor)->scalar."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    build(t).backward()
    numeric = fd_grad(lambda a: build(Tensor(a)).item(), x.copy())
    denom = np.maximum(1.0, np.maximum(np.abs(t.grad), np.abs(numeric)))
    assert np.max(np.abs(t.grad - numeric) / denom) < tol


def softmax(t):
    """Softmax over the last axis, as the attention reference builds it."""
    e = ops.exp(ops.sub(t, t.data.max(axis=-1, keepdims=True)))
    return ops.div(e, e.sum(axis=-1, keepdims=True))


class TestPrimitiveGradients:
    def test_quadratic(self):
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, np.array([2.0, 4.0, 6.0]))

    def test_sigmoid_at_zero(self):
        x = Tensor(np.array(0.0), requires_grad=True)
        ops.sigmoid(x).backward()
        assert abs(x.grad - 0.25) < 1e-15

    @pytest.mark.parametrize("seed", range(20))
    def test_three_layer_composition(self, seed):
        def f(t):
            w = Tensor(np.linspace(-1.0, 1.0, 12).reshape(4, 3))
            return (ops.sigmoid(ops.tanh(linear(t, w, Tensor(np.zeros(3)))))
                    * 2.0).sum()

        check_op(f, (2, 4), seed)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("op", [
        lambda t: ops.log(ops.exp(t) + 1.0).sum(),
        lambda t: ops.mean(ops.tanh(t)),
        lambda t: ops.sigmoid(t * t + t).sum(),
        # Softmax as the attention reference builds it, and a column slice.
        lambda t: (softmax(t) * t).sum(),
        lambda t: (t * t).sum(axis=-1).sqrt().sum(),
        lambda t: ops.mean(ops.reshape(t, (6,))),
        lambda t: ops.mean(t[:, 1:].sum(axis=0)),
        lambda t: (ops.softplus(t) * t).sum(),
        lambda t: ops.div(t, t * t + 2.0).sum(),
        lambda t: ops.sub(t, ops.mean(t, axis=-1, keepdims=True)).sum(),
    ])
    def test_elementwise_and_reductions(self, op, seed):
        check_op(op, (2, 3), seed)

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [(0, 1), (-1, 0)])
    def test_mean_over_axis_tuple(self, axis, keepdims):
        # A mean over several axes is their sum over the count of entries
        # reduced, in value and in gradient.
        x = np.random.default_rng(5).standard_normal((2, 3, 4))
        n = np.prod([x.shape[a] for a in axis])
        results = []
        for reduce in (lambda t: ops.mean(t, axis=axis, keepdims=keepdims),
                       lambda t: ops.div(t.sum(axis=axis, keepdims=keepdims), n)):
            t = Tensor(x, requires_grad=True)
            out = reduce(t)
            (out * out).sum().backward()
            results.append((out.data, t.grad))
        (mean, g_mean), (ref, g_ref) = results
        assert mean.shape == ref.shape
        assert np.max(np.abs(mean - ref)) < 1e-15
        assert np.max(np.abs(g_mean - g_ref)) < 1e-15
        params = ParameterStore()
        params.add("x", x)

        def loss(p):
            m = ops.mean(p["x"], axis=axis, keepdims=keepdims)
            return (m * m).sum()

        assert grad_check(loss, params).passed

    @pytest.mark.parametrize("seed", range(5))
    def test_matmul_grad(self, seed):
        # `linear` holds the only matmul on the tape.
        def f(t):
            w = Tensor(np.arange(12.0).reshape(3, 4) / 10.0)
            return linear(t, w, Tensor(np.zeros(4))).sum()

        check_op(f, (2, 3), seed)

    def test_batched_matmul_matches_numpy(self):
        # A [B, T, d] batch of spans times one matrix.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 2, 4))
        b = rng.standard_normal((4, 5))
        out = linear(Tensor(a), Tensor(b), Tensor(np.zeros(5))).data
        assert np.max(np.abs(out - a @ b)) < 1e-10

    def test_getitem_and_concat_grads(self):
        def f(t):
            return concat([t[0:1] * 2.0, t[1:3]], axis=0).sum()

        check_op(f, (3, 2), 0)

    def test_concat_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        concat([ops.reshape(x[0], (1, 2)),
                ops.reshape(x[2], (1, 2))]).sum().backward()
        assert np.array_equal(x.grad, np.array([[1.0, 1], [0, 0], [1, 1]]))


    def test_getitem_repeated_indices_add_up(self):
        # Each pick of a repeated index passes its gradient back, as the
        # token embedding's row gather needs; along a later axis too, as a
        # batched row gather does.
        x = Tensor(np.arange(3.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        assert np.array_equal(x.grad, [2.0, 0.0, 1.0])
        y = Tensor(np.ones((2, 3, 2)), requires_grad=True)
        (y[:, [0, 0, 2]] * 3.0).sum().backward()
        assert np.array_equal(y.grad[1], [[6.0, 6.0], [0.0, 0.0], [3.0, 3.0]])

    def test_getitem_basic_slice_grad(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x[..., 1:].sum().backward()
        assert np.array_equal(x.grad, [[0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])


class TestTapeRelease:
    """Tensor.backward frees the tape as it consumes it."""

    @staticmethod
    def graph():
        params = ParameterStore()
        params.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
        params.add("b", np.array([0.5, -0.5]))
        x = Tensor(np.array([[1.0, -1.0], [2.0, 0.5]]))
        hidden = ops.tanh(linear(x, params["w"], params["b"]))
        return params, hidden, (hidden * hidden).sum()

    def test_leaf_grads_survive_forward_backward(self):
        params, hidden, loss = self.graph()
        grads = forward_backward(loss, params)
        for name in ("w", "b"):
            assert params[name].grad is not None
            assert np.array_equal(grads[name].data, params[name].grad)
        y = np.tanh(np.array([[1.0, -1.0], [2.0, 0.5]]) @ params["w"].data
                    + params["b"].data)
        assert np.max(np.abs(params["b"].grad
                             - (2 * y * (1 - y * y)).sum(axis=0))) < 1e-15

    def test_returned_grads_outlive_the_next_step(self):
        # forward_backward returns views of one flat array that it makes
        # fresh on each call: a parameter update and the next step's
        # backward never write into the arrays already returned.
        from lpcsm.objective import SgdConfig, SgdState

        params, _, loss = self.graph()
        first = forward_backward(loss, params)
        kept = {name: g.data.copy() for name, g in first.items()}
        SgdState().step(params, first, SgdConfig(lr=0.1, momentum=0.9))
        hidden = ops.tanh(linear(Tensor(np.array([[0.3, 0.2], [-1.0, 1.5]])),
                                 params["w"], params["b"]))
        second = forward_backward((hidden * hidden).sum(), params)
        for name, g in first.items():
            assert np.array_equal(g.data, kept[name]), name
            assert g.data is not second[name].data
            assert not np.array_equal(second[name].data, kept[name])

    def test_interior_nodes_released(self):
        _, hidden, loss = self.graph()
        pre = hidden._prev[0]
        loss.backward()
        for node in (loss, hidden, pre):
            assert node.grad is None
            assert node._prev == ()

    def test_second_backward_raises(self):
        params, hidden, loss = self.graph()
        forward_backward(loss, params)
        with pytest.raises(NumericsError, match="released"):
            forward_backward(loss, params)
        # A new root over a released node reaches it and raises too.
        with pytest.raises(NumericsError, match="released"):
            (hidden * 2.0).sum().backward()


class TestFlatGradients:
    """forward_backward and the optimizer check one flat buffer each."""

    def test_forward_backward_names_the_first_bad_gradient(self):
        params = ParameterStore()
        for name in ("a", "b", "c"):
            params.add(name, np.ones(2))
        # c's term is on the tape first; b and c get infinite gradients.
        loss = ((params["c"] * np.inf).sum() + (params["a"] * 2.0).sum()
                + (params["b"] * np.inf).sum())
        with pytest.raises(NumericsError, match="gradient of 'b'"):
            forward_backward(loss, params)

    def test_finite_step_checks_do_not_grow_with_the_store(self, monkeypatch):
        from lpcsm import numerics, objective
        from lpcsm.objective import SgdConfig, SgdState

        calls = []
        real = numerics.check_finite
        def counting(arr, what="value"):
            calls.append(what)
            real(arr, what)
        monkeypatch.setattr(numerics, "check_finite", counting)
        monkeypatch.setattr(objective, "check_finite", counting)

        def counts(n):
            params = ParameterStore()
            for i in range(n):
                params.add(f"p{i}", np.full(3, 0.01 * i))
            loss = sum(((params[f"p{i}"] * params[f"p{i}"]).sum()
                        for i in range(n)), Tensor(0.0))
            del calls[:]
            grads = forward_backward(loss, params)
            in_backward = len(calls)
            SgdState().step(params, grads, SgdConfig())
            return in_backward, len(calls) - in_backward

        assert counts(2) == counts(200)


class TestUnbroadcast:
    """A size-1 leading axis is taken, not summed, only when another sum
    over axis 0 follows; the bytes are those of summing every axis."""

    def test_size_one_batch_into_bias(self):
        g = np.random.default_rng(3).standard_normal((1, 6, 4))
        g[0, :, 1] = -0.0  # a column that sums to zero
        g[0, 2, 0] = -0.0
        bias = Tensor(np.zeros(4), requires_grad=True)
        _accum(bias, g)
        expected = g.sum(axis=0).sum(axis=0)
        assert bias.grad.tobytes() == expected.tobytes()
        assert not np.signbit(bias.grad[1])

    def test_size_one_row_into_bias_still_sums(self):
        g = np.array([[-0.0, 1.5, -0.0]])
        bias = Tensor(np.zeros(3), requires_grad=True)
        _accum(bias, g)
        # g[0] would keep the -0.0 entries; the sum gives +0.0.
        assert bias.grad.tobytes() == g.sum(axis=0).tobytes()
        assert not np.signbit(bias.grad).any()


class TestGatedScan:
    def test_rows_follow_recurrence(self):
        rng = np.random.default_rng(4)
        decay = rng.uniform(0, 1, (9, 5))
        write = rng.standard_normal((9, 5))
        f = rng.standard_normal(5)
        rows = gated_scan(decay, write, f)
        for t in range(9):
            f = decay[t] * f + write[t]
            assert np.array_equal(rows[t], f)

    def test_vector_is_one_step(self):
        decay, write, init = (np.array([0.3, 0.9]), np.array([1.0, -2.0]),
                              np.array([0.5, 0.25]))
        out = gated_scan(decay, write, init)
        assert out.shape == (2,)
        assert np.array_equal(out, decay * init + write)

    def test_batch_rows_are_row_scans(self):
        rng = np.random.default_rng(6)
        decay = rng.uniform(0, 1, (3, 7, 4))
        write = rng.standard_normal((3, 7, 4))
        init = rng.standard_normal((3, 4))
        rows = gated_scan(decay, write, init)
        for b in range(3):
            one = gated_scan(decay[b], write[b], init[b])
            assert np.array_equal(rows[b], one)

    def test_shape_mismatch(self):
        with pytest.raises(NumericsError):
            gated_scan(np.ones((3, 2)), np.ones((3, 2)), np.ones(3))
        for init in ((3, 2), (2,)):  # a batch needs a [B, d] init
            with pytest.raises(NumericsError):
                gated_scan(np.ones((2, 3, 2)), np.ones((2, 3, 2)),
                           np.ones(init))
        with pytest.raises(NumericsError):
            gated_scan(np.ones((3, 2)), np.ones((2, 2)), np.ones(2))

    def test_grad_check(self):
        rng = np.random.default_rng(5)
        params = ParameterStore()
        params.add("decay", rng.uniform(0.1, 0.9, (6, 3)))
        params.add("write", rng.standard_normal((6, 3)))
        params.add("init", rng.standard_normal(3))
        weights = Tensor(rng.standard_normal((6, 3)))

        def loss(p):
            rows = scan_node(p["decay"], p["write"], p["init"])
            return (rows * rows * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_batch_grad_check(self):
        rng = np.random.default_rng(7)
        params = ParameterStore()
        params.add("decay", rng.uniform(0.1, 0.9, (2, 5, 3)))
        params.add("write", rng.standard_normal((2, 5, 3)))
        params.add("init", rng.standard_normal((2, 3)))
        weights = Tensor(rng.standard_normal((2, 5, 3)))

        def loss(p):
            rows = scan_node(p["decay"], p["write"], p["init"])
            return (rows * rows * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    @pytest.mark.parametrize("shape", [(1, 3), (2, 1, 3)])
    def test_one_row_span(self, shape):
        # One step, computed without the loop: the loop's floats and a
        # passing gradient check.
        rng = np.random.default_rng(8)
        params = ParameterStore()
        params.add("decay", rng.uniform(0.1, 0.9, shape))
        params.add("write", rng.standard_normal(shape))
        params.add("init", rng.standard_normal(shape[:-2] + shape[-1:]))
        weights = Tensor(rng.standard_normal(shape))
        rows = scan_node(params["decay"], params["write"], params["init"])
        expect = (params["decay"].data * params["init"].data.reshape(shape)
                  + params["write"].data)
        assert rows.shape == shape
        assert np.array_equal(rows.data, expect)

        def loss(p):
            rows = scan_node(p["decay"], p["write"], p["init"])
            return (rows * rows * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error


def logistic(x):
    """Reference logistic function, independent of `sigmoid`."""
    return 1.0 / (1.0 + np.exp(-x))


class TestSigmoid:
    def test_matches_reference(self):
        x = np.linspace(-40.0, 40.0, 200_001)
        assert np.max(np.abs(sigmoid(x) - logistic(x))) <= 2.3e-16

    def test_saturates_without_overflow(self):
        x = np.array([-1e308, -710.0, 710.0, 1e308])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y = sigmoid(x)
        assert np.array_equal(y, [0.0, 0.0, 1.0, 1.0])

    def test_scalars_give_float64(self):
        for x in (0.25, np.array(0.25)):
            y = sigmoid(x)
            assert y.dtype == np.float64 and y.shape == ()
            assert abs(y - logistic(0.25)) <= 2.3e-16


class TestSubtraction:
    def test_grad_check_both_operand_orders(self):
        rng = np.random.default_rng(11)
        params = ParameterStore()
        params.add("a", rng.standard_normal((3, 4)))
        params.add("b", rng.standard_normal(4))

        def loss(p):
            a, b = p["a"], p["b"]
            return ((ops.sub(a, b) * ops.sub(b, a)).sum()
                    + ops.tanh(ops.sub(1.5, a)).sum()
                    + ops.sigmoid(ops.sub(b, 0.5)).sum()
                    + ops.exp(ops.sub(2.0, b * b)).sum())

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_one_node_same_floats(self):
        rng = np.random.default_rng(12)
        x, y = rng.standard_normal((2, 5))
        a = Tensor(x, requires_grad=True)
        b = Tensor(y, requires_grad=True)
        diff = ops.sub(a, b)
        assert np.array_equal(diff.data, x + (-y))
        assert diff._prev == (a, b)
        assert np.array_equal(ops.sub(2.0, a).data, 2.0 + (-x))


class TestLinear:
    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4, 3), (3, 5), (5,)),  # a span of rows
        ((3,), (3, 5), (5,)),    # one row, as slow_write projects it
        ((4, 3), (3,), ()),      # the stop head: a 1-D w and a scalar b
    ])
    def test_grad_check(self, x_shape, w_shape, b_shape):
        rng = np.random.default_rng(13)
        params = ParameterStore()
        for name, shape in (("x", x_shape), ("w", w_shape), ("b", b_shape)):
            params.add(name, rng.standard_normal(shape))
        weights = Tensor(rng.standard_normal(x_shape[:-1] + w_shape[1:]))

        def loss(p):
            return (ops.tanh(linear(p["x"], p["w"], p["b"])) * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_one_node_same_floats(self):
        rng = np.random.default_rng(14)
        x, w, b = (Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((4, 3), (3, 5), (5,)))
        out = linear(x, w, b)
        assert out._prev == (x, w, b)
        assert np.array_equal(out.data, x.data @ w.data + b.data)

    @pytest.mark.parametrize("act", ["tanh", "sigmoid"])
    @pytest.mark.parametrize("x_shape", [(1, 6), (5, 6), (3, 5, 6)])
    def test_activation_equals_its_chain_bit_for_bit(self, x_shape, act):
        # A row, a span and a batch: the fused node gives the value and the
        # x, w and b gradients of linear(x, w, b) followed by the reference
        # op, float for float.
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal(s) for s in (x_shape, (6, 4), (4,))]
        weights = rng.standard_normal(x_shape[:-1] + (4,))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                out = linear(x, w, b, act)
                assert out._prev == (x, w, b)
            else:
                out = getattr(ops, act)(linear(x, w, b))
            (out * Tensor(weights)).sum().backward()
            results.append([out.data, x.grad, w.grad, b.grad])
        for got, expect in zip(*results):
            assert got.shape == expect.shape
            assert got.tobytes() == expect.tobytes()

    def test_unknown_activation(self):
        with pytest.raises(NumericsError, match="unknown activation"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))),
                   Tensor(np.ones(5)), "relu")

    def test_shape_mismatch(self):
        with pytest.raises(NumericsError, match="linear shape mismatch"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))),
                   Tensor(np.ones(5)))


class TestTensorBasics:
    def test_nonfinite_rejected(self):
        with pytest.raises(NumericsError):
            Tensor(np.array([1.0, np.inf]))
        with pytest.raises(NumericsError):
            Tensor(np.array(np.nan))

    def test_op_results_are_not_checked(self):
        # Computed values are checked at the model's boundaries, not per
        # tape node; the constructor still rejects them.
        with np.errstate(over="ignore"):
            y = Tensor(np.array([1e308])) * 10.0
        assert np.isinf(y.data[0])
        with pytest.raises(NumericsError, match="non-finite LM logits"):
            check_finite(y.data, "LM logits")
        with pytest.raises(NumericsError):
            Tensor(y.data)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._prev == ()
        # Each node-building op, with inputs that require grad, keeps no
        # inputs and no backward closure while the tape is off.
        rng = np.random.default_rng(7)

        def leaf(*shape):
            return Tensor(rng.uniform(0.5, 1.5, shape), requires_grad=True)

        x, m = leaf(2, 4), leaf(4, 3)
        params = ParameterStore()
        for name, shape in (("w_qkv", (4, 12)), ("b_qkv", (12,)),
                            ("w_o", (4, 4)), ("b_o", (4,))):
            params.add("attn." + name, rng.standard_normal(shape))
        for name in ("w_d", "w_u", "w_qf", "w_qs", "b_d", "b_u", "b_qf", "b_qs",
                     "w_r", "b_r"):
            shape = (8, 4) if name == "w_r" else (4, 4) if name[0] == "w" else (4,)
            params.add("mem." + name, rng.standard_normal(shape))
        cp = ControllerParams(scale=leaf(), temperature=1.0,
                              ratio_raw=leaf(), ratio_min=0.1, ratio_max=0.9)
        builds = [
            lambda: x + 1.0, lambda: ops.neg(x), lambda: ops.sub(x, 1.0),
            lambda: ops.sub(1.0, x), lambda: x * 2.0,
            lambda: ops.div(x, 2.0), lambda: linear(x, m, m[0]), lambda: x.sum(), lambda: ops.mean(x, 0),
            lambda: ops.tanh(x), lambda: ops.sigmoid(x), lambda: ops.softplus(x),
            lambda: ops.exp(x), lambda: ops.log(x), lambda: x.sqrt(),
            lambda: ops.reshape(x, (4, 2)), lambda: x[1],
            lambda: concat([x, x]), lambda: x[[1, 0, 1]],
            lambda: fast_update(x, x[0], params),
            lambda: memory_read(x, x, x[0], params),
            lambda: straight_through(np.ones(4), x[0]),
            lambda: local_attention(x, x, 2, 2, params),
            lambda: causal_mask_bits(x[0], cp),
        ]
        with no_grad():
            for build in builds:
                out = build()
                for t in out if isinstance(out, tuple) else (out,):
                    assert t._prev == () and t._backward is None
                    assert not t.requires_grad

    def test_only_op_records_tape(self):
        # One protocol builds tape nodes: outside numerics._op, only the
        # public constructor sets its own empty record, and
        # Tensor.backward clears the record of each node it releases.
        offenders = []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            allowed = set()
            if path.stem == "numerics":
                tensor = next(n for n in tree.body if getattr(n, "name", "") == "Tensor")
                for fn in [*tree.body, *tensor.body]:
                    if getattr(fn, "name", "") in ("_op", "__init__", "backward"):
                        allowed.update(range(fn.lineno, fn.end_lineno + 1))
            offenders += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                          if isinstance(n, ast.Attribute)
                          and n.attr in ("_prev", "_backward")
                          and isinstance(n.ctx, ast.Store)
                          and n.lineno not in allowed]
        assert offenders == []

    def test_straight_through_values_and_grad(self):
        soft = Tensor(np.array([0.2, 0.8]), requires_grad=True)
        hard = straight_through(np.array([0.0, 1.0]), soft)
        assert np.array_equal(hard.data, np.array([0.0, 1.0]))
        hard.sum().backward()
        assert np.array_equal(soft.grad, np.ones(2))


class TestRmsNorm:
    def test_unit_rms_fixed_point(self):
        out = rmsnorm(Tensor(np.ones(4)), Tensor(np.ones(4)), 0.0)
        assert np.array_equal(out.data, np.ones(4))

    def test_direct_formula(self):
        out = rmsnorm(Tensor(np.array([3.0, 4.0])), Tensor(np.ones(2)), 0.0)
        expect = np.array([3.0, 4.0]) / np.sqrt(12.5)
        assert np.max(np.abs(out.data - expect)) < 1e-15

    def test_zero_input(self):
        out = rmsnorm(Tensor(np.zeros(2)), Tensor(np.ones(2)), 1e-6)
        assert np.array_equal(out.data, np.zeros(2))

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5))
        g = rng.standard_normal(5)
        a = rmsnorm(Tensor(4.0 * x), Tensor(g), 0.0).data
        b = rmsnorm(Tensor(x), Tensor(g), 0.0).data
        assert np.max(np.abs(a - b)) < 1e-10

    def test_grad(self):
        def f(t):
            return rmsnorm(t, Tensor(np.array([1.0, 2.0, 0.5])), 1e-6).sum()

        check_op(f, (2, 3), 5)

    @pytest.mark.parametrize("shape", [(1, 7), (7,), (1, 1, 32), (1, 9)])
    def test_one_row_matches_array_path(self, shape):
        # One row takes its rms as a Python float; the floats, forward and
        # backward, are those of the [..., 1] array of rms values.
        rng = np.random.default_rng(16)
        for _ in range(20):  # a wrong sum order can round alike by chance
            x = Tensor(rng.standard_normal(shape) * 3.0, requires_grad=True)
            gain = Tensor(rng.standard_normal(shape[-1]), requires_grad=True)
            g = rng.standard_normal(shape)
            out = rmsnorm(x, gain, 1e-6)
            (out * Tensor(g)).sum().backward()
            n = shape[-1]
            rms = np.sqrt(np.add.reduce(x.data * x.data, axis=-1,
                                        keepdims=True) / n + 1e-6)
            xhat = x.data / rms
            gx = g * gain.data
            dot = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / n
            assert out.data.tobytes() == (xhat * gain.data).tobytes()
            assert x.grad.tobytes() == ((gx - xhat * dot) / rms).tobytes()
            expect_gain = g * xhat
            while expect_gain.ndim > 1:
                expect_gain = expect_gain.sum(axis=0)
            assert gain.grad.tobytes() == expect_gain.tobytes()

    def test_grad_check_x_and_gain(self):
        rng = np.random.default_rng(15)
        params = ParameterStore()
        params.add("x", rng.standard_normal((3, 4)))
        params.add("gain", rng.standard_normal(4))
        weights = Tensor(rng.standard_normal((3, 4)))

        def loss(p):
            return (rmsnorm(p["x"], p["gain"], 1e-6) * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_one_node_same_floats(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gain = Tensor(rng.standard_normal(4), requires_grad=True)
        out = rmsnorm(x, gain, 1e-6)
        assert out._prev == (x, gain)
        composed = ops.div(x, (ops.mean(x * x, axis=-1, keepdims=True)
                               + 1e-6).sqrt()) * gain
        assert np.array_equal(out.data, composed.data)


class TestGradCheckHarness:
    def test_trivial_quadratic(self):
        params = ParameterStore()
        params.add("theta", np.array([3.0]))

        report = grad_check(lambda p: (p["theta"] * p["theta"]).sum() * 0.5,
                            params)
        assert report.passed
        assert report.worst < 1e-9

    def test_eps_zero_rejected(self):
        params = ParameterStore()
        params.add("theta", np.array([1.0]))
        with pytest.raises(NumericsError):
            grad_check(lambda p: p["theta"].sum(), params, eps=0.0)

    def test_frozen_params_omitted(self):
        params = ParameterStore()
        params.add("a", np.ones(2))
        params.add("b", np.ones(2), trainable=False)
        grads = forward_backward((params["a"] * params["b"]).sum(), params)
        assert set(grads) == {"a"}

    def test_nondeterministic_loss_rejected(self):
        params = ParameterStore()
        params.add("a", np.ones(1))
        state = {"n": 0}

        def noisy(p):
            state["n"] += 1
            return p["a"].sum() * float(state["n"])

        with pytest.raises(NumericsError):
            grad_check(noisy, params)
