"""Windowed causal attention: masking, single-token and collapsed-window
contracts, the latent-KV variant, gradient checks, and the windowed node
against the dense masked form it replaces."""

import tracemalloc

import numpy as np
import pytest

from lpcsm.numerics import (Tensor, NumericsError, ParameterStore, concat,
                            grad_check)
from lpcsm.attention import (MASK_VALUE, _slot_max, local_attention,
                             latent_attention)

import reference_ops as ops
from reference_mechanisms import attend_node


def make_params(d, seed=0, latent_dim=None, prefix="attn."):
    rng = np.random.default_rng(seed)
    params = ParameterStore()
    if latent_dim is None:
        params.add(prefix + "w_qkv", rng.standard_normal((d, 3 * d)) / np.sqrt(d))
        params.add(prefix + "b_qkv", rng.standard_normal(3 * d) * 0.1)
    else:
        params.add(prefix + "w_q", rng.standard_normal((d, d)) / np.sqrt(d))
        params.add(prefix + "b_q", rng.standard_normal(d) * 0.1)
        params.add(prefix + "w_z", rng.standard_normal((d, latent_dim)) / np.sqrt(d))
        params.add(prefix + "b_z", rng.standard_normal(latent_dim) * 0.1)
        params.add(prefix + "w_k_up", rng.standard_normal((latent_dim, d)))
        params.add(prefix + "b_k_up", rng.standard_normal(d) * 0.1)
        params.add(prefix + "w_v_up", rng.standard_normal((latent_dim, d)))
        params.add(prefix + "b_v_up", rng.standard_normal(d) * 0.1)
    params.add(prefix + "w_o", rng.standard_normal((d, d)) / np.sqrt(d))
    params.add(prefix + "b_o", rng.standard_normal(d) * 0.1)
    return params


@pytest.mark.parametrize("latent_dim", [None, 3])
@pytest.mark.parametrize("past", [1, 3, 6])
def test_span_with_past_continues_sequence(latent_dim, past):
    # Attending a span after `past` earlier rows gives the trailing rows of
    # one pass over the whole sequence.
    d = 8
    params = make_params(d, seed=30, latent_dim=latent_dim)
    attend = local_attention if latent_dim is None else latent_attention
    h = np.random.default_rng(31).standard_normal((7, d))
    whole = attend(Tensor(h), Tensor(h), 3, 2, params).data
    span = attend(Tensor(h[past:]), Tensor(h), 3, 2, params).data
    assert np.max(np.abs(span - whole[past:])) < 1e-12


class TestLocalAttention:
    def test_invalid_window(self):
        with pytest.raises(NumericsError):
            x = Tensor(np.zeros((2, 4)))
            local_attention(x, x, 0, 1, make_params(4))

    @pytest.mark.parametrize("heads", [0, -2])
    def test_invalid_heads(self, heads):
        with pytest.raises(NumericsError):
            x = Tensor(np.zeros((2, 4)))
            local_attention(x, x, 2, heads, make_params(4))

    def test_single_token_is_value_projection(self):
        d = 8
        params = make_params(d, seed=1)
        h = Tensor(np.random.default_rng(2).standard_normal((1, d)))
        out = local_attention(h, h, 4, 2, params)
        qkv = h.data @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:3 * d]
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_window_one_collapses_to_self(self):
        d = 8
        params = make_params(d, seed=3)
        h = Tensor(np.random.default_rng(4).standard_normal((5, d)))
        out = local_attention(h, h, 1, 2, params)
        qkv = h.data @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:3 * d]
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_identical_keys_uniform_weights(self):
        d = 4
        params = make_params(d, seed=5)
        # Zero key weights give the key b_k at every position, so each row
        # reads the plain mean of the value rows in its window.
        params["attn.w_qkv"].data[:, d:2 * d] = 0.0
        h = np.random.default_rng(6).standard_normal((3, d))
        out = local_attention(Tensor(h), Tensor(h), 2, 1, params).data
        qkv = h @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:]
        for t in range(3):
            mean = v[max(0, t - 1):t + 1].mean(axis=0)
            expect = mean @ params["attn.w_o"].data + params["attn.b_o"].data
            assert np.max(np.abs(out[t] - expect)) < 1e-12

    def test_causality_perturbation(self):
        d = 8
        params = make_params(d, seed=7)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, d))
        base = local_attention(Tensor(h), Tensor(h), 3, 2, params).data
        h2 = h.copy()
        h2[4] += rng.standard_normal(d)
        pert = local_attention(Tensor(h2), Tensor(h2), 3, 2, params).data
        assert np.array_equal(base[:4], pert[:4])
        assert np.max(np.abs(base[4] - pert[4])) > 0.0

    def test_window_locality_perturbation(self):
        d = 8
        params = make_params(d, seed=9)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((6, d))
        base = local_attention(Tensor(h), Tensor(h), 2, 2, params).data
        h2 = h.copy()
        h2[0] += rng.standard_normal(d)
        pert = local_attention(Tensor(h2), Tensor(h2), 2, 2, params).data
        # Position 0 is outside the window of every t >= 2.
        assert np.array_equal(base[2:], pert[2:])

    def test_grad_check(self):
        d = 8
        params = make_params(d, seed=11)
        h = np.random.default_rng(12).standard_normal((4, d))

        def loss(p):
            r = local_attention(Tensor(h), Tensor(h), 3, 2, p)
            return (r * r).sum()

        assert grad_check(loss, params, sample=8).passed


class TestLatentAttention:
    def test_requires_latent_dim(self):
        with pytest.raises(NumericsError):
            x = Tensor(np.zeros((2, 4)))
            latent_attention(x, x, 2, 1, make_params(4))

    def test_passthrough_matches_local(self):
        d = 8
        base = make_params(d, seed=13)
        w_qkv = base["attn.w_qkv"].data
        b_qkv = base["attn.b_qkv"].data
        latent = ParameterStore()
        latent.add("attn.w_q", w_qkv[:, 0:d].copy())
        latent.add("attn.b_q", b_qkv[0:d].copy())
        latent.add("attn.w_z", np.eye(d))
        latent.add("attn.b_z", np.zeros(d))
        latent.add("attn.w_k_up", w_qkv[:, d:2 * d].copy())
        latent.add("attn.b_k_up", b_qkv[d:2 * d].copy())
        latent.add("attn.w_v_up", w_qkv[:, 2 * d:3 * d].copy())
        latent.add("attn.b_v_up", b_qkv[2 * d:3 * d].copy())
        latent.add("attn.w_o", base["attn.w_o"].data.copy())
        latent.add("attn.b_o", base["attn.b_o"].data.copy())
        h = Tensor(np.random.default_rng(14).standard_normal((5, d)))
        a = local_attention(h, h, 3, 2, base).data
        b = latent_attention(h, h, 3, 2, latent).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rank_one_keys(self):
        d = 4
        params = make_params(d, seed=15, latent_dim=1)
        params["attn.b_z"].data = np.zeros(1)
        params["attn.b_k_up"].data = np.zeros(d)
        h = Tensor(np.random.default_rng(16).standard_normal((2, d)))
        z = h.data @ params["attn.w_z"].data
        k = z @ params["attn.w_k_up"].data
        # All keys are scalar multiples of the single lift row.
        row = params["attn.w_k_up"].data[0]
        for t in range(2):
            assert np.max(np.abs(k[t] - z[t, 0] * row)) < 1e-12

    def test_single_token(self):
        d = 8
        params = make_params(d, seed=17, latent_dim=3)
        h = Tensor(np.random.default_rng(18).standard_normal((1, d)))
        out = latent_attention(h, h, 4, 2, params)
        z = h.data @ params["attn.w_z"].data + params["attn.b_z"].data
        v = z @ params["attn.w_v_up"].data + params["attn.b_v_up"].data
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_grad_check(self):
        d = 8
        params = make_params(d, seed=19, latent_dim=3)
        h = np.random.default_rng(20).standard_normal((4, d))

        def loss(p):
            r = latent_attention(Tensor(h), Tensor(h), 3, 2, p)
            return (r * r).sum()

        assert grad_check(loss, params, sample=8).passed


def dense_attention(q, k, v, window, heads):
    """The masked form the windowed node replaces: per head, [T, past+T]
    scores under an additive window mask, then a max-shifted softmax."""
    t_len, kv_len = q.shape[0], k.shape[0]
    hd = q.shape[1] // heads
    qpos = np.arange(kv_len - t_len, kv_len)[:, None]
    kpos = np.arange(kv_len)[None, :]
    mask = np.where((kpos <= qpos) & (kpos > qpos - window), 0.0, MASK_VALUE)
    mixed = []
    for head in range(heads):
        cols = slice(head * hd, (head + 1) * hd)
        scores = ((ops.reshape(q[:, cols], (t_len, 1, hd))
                   * ops.reshape(k[:, cols], (1, kv_len, hd))).sum(-1)
                  * (1.0 / np.sqrt(hd)) + mask)
        e = ops.exp(ops.sub(scores, scores.data.max(axis=-1, keepdims=True)))
        weights = ops.reshape(ops.div(e, e.sum(axis=-1, keepdims=True)),
                              (t_len, kv_len, 1))
        mixed.append((weights * ops.reshape(v[:, cols], (1, kv_len, hd))).sum(1))
    return concat(mixed, axis=-1)


def tape_nodes(root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


# (T, past rows, window): a window wider than the sequence, window 1,
# one-token spans after 0 to 8 past rows, longer spans with a past, spans
# of several query blocks, a whole number of them or not, and spans
# shorter than the window after a past that leaves padding in view.
WINDOW_CASES = ([(3, 0, 6), (5, 0, 1), (4, 3, 2), (9, 5, 4)]
                + [(1, past, 4) for past in range(9)]
                + [(20, 0, 8), (37, 5, 8), (64, 0, 8), (3, 2, 6), (5, 3, 8)])


class TestWindowedNode:
    @pytest.mark.parametrize("t_len,past,window", WINDOW_CASES)
    def test_matches_dense_masked_form(self, t_len, past, window):
        d, heads = 8, 2
        rng = np.random.default_rng(40 + 10 * t_len + past)
        q, k, v = (rng.standard_normal((n, d)) for n in (t_len, past + t_len,
                                                         past + t_len))
        g = rng.standard_normal((t_len, d))
        results = []
        for attend in (attend_node, dense_attention):
            leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
            out = attend(*leaves, window, heads)
            (out * Tensor(g)).sum().backward()
            results.append([out.data] + [t.grad for t in leaves])
        for a, b in zip(*results):
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("t_len,past,window", [(20, 3, 8), (4, 2, 6),
                                                   (1, 9, 8), (1, 3, 4)])
    def test_batch_rows_match_dense_masked_form(self, t_len, past, window):
        # Each row of a [B, T] batch is its own sequence. The one-row spans
        # after a full window read q, k and v through head views.
        d, heads, b = 8, 2, 3
        rng = np.random.default_rng(47 + t_len)
        q, k, v = (rng.standard_normal((b, n, d)) for n in (t_len, past + t_len,
                                                            past + t_len))
        g = rng.standard_normal((b, t_len, d))
        leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = attend_node(*leaves, window, heads)
        (out * Tensor(g)).sum().backward()
        for row in range(b):
            rows = [Tensor(x[row], requires_grad=True) for x in (q, k, v)]
            dense = dense_attention(*rows, window, heads)
            (dense * Tensor(g[row])).sum().backward()
            expect = [dense.data] + [t.grad for t in rows]
            got = [out.data[row]] + [t.grad[row] for t in leaves]
            for a, e in zip(got, expect):
                assert np.max(np.abs(a - e)) < 1e-12

    @pytest.mark.parametrize("latent_dim", [None, 3])
    @pytest.mark.parametrize("t_len,past,window", WINDOW_CASES)
    def test_grad_check(self, t_len, past, window, latent_dim):
        d = 8
        params = make_params(d, seed=41 + past, latent_dim=latent_dim)
        attend = local_attention if latent_dim is None else latent_attention
        h = np.random.default_rng(42 + t_len).standard_normal((past + t_len, d))

        def loss(p):
            r = attend(Tensor(h[past:]), Tensor(h), window, 2, p)
            return (r * r).sum()

        assert grad_check(loss, params, sample=6).passed

    def test_tape_nodes_do_not_grow_with_length(self):
        params = make_params(32, seed=43)
        counts = []
        for t_len in (64, 256):
            h = Tensor(np.random.default_rng(44).standard_normal((t_len, 32)),
                       requires_grad=True)
            counts.append(tape_nodes(local_attention(h, h, 8, 4, params)))
        assert counts[0] == counts[1]

    def test_memory_linear_in_length(self):
        # The dense form peaked at 17.5 MB for T=256 and 67.9 MB for T=512.
        params = make_params(32, seed=45)

        def peak_bytes(t_len):
            h = Tensor(np.random.default_rng(46).standard_normal((t_len, 32)),
                       requires_grad=True)
            tracemalloc.start()
            try:
                out = local_attention(h, h, 8, 4, params)
                (out * out).sum().backward()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak_bytes(512) <= 2.5 * peak_bytes(256)


@pytest.mark.parametrize("shape", [(4, 4, 8, 8, 15), (3, 2, 5, 1), (2, 7, 2)])
def test_slot_max_is_the_row_max(shape):
    # The block path's row max, slot by slot, gives the reduce's values,
    # with masked slots and a row masked up to its last slot among them.
    x = np.random.default_rng(53).standard_normal(shape)
    x[..., ::3] = MASK_VALUE
    x[..., :-1][..., :1, :] = MASK_VALUE
    assert np.array_equal(_slot_max(x),
                          np.maximum.reduce(x, axis=-1, keepdims=True))
