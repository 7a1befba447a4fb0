"""Windowed causal attention: masking, single-token and collapsed-window
contracts, the latent-KV variant, and gradient checks."""

import numpy as np
import pytest

from lpcsm.numerics import Tensor, NumericsError, ParameterStore, grad_check
from lpcsm.attention import (
    MASK_VALUE, AttentionConfig, window_mask, local_attention, latent_attention,
)


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


class TestWindowMask:
    def test_shape_and_diagonal(self):
        m = window_mask(5, 2)
        assert m.shape == (5, 5)
        assert np.all(np.diag(m) == 0.0)

    def test_future_blocked(self):
        m = window_mask(4, 4)
        assert np.all(m[np.triu_indices(4, k=1)] == MASK_VALUE)

    def test_window_bound(self):
        m = window_mask(5, 2)
        # Position 4 sees only positions 3 and 4.
        assert np.array_equal(m[4], [MASK_VALUE] * 3 + [0.0, 0.0])

    def test_invalid_window(self):
        with pytest.raises(NumericsError):
            AttentionConfig(window=0, heads=1, head_dim=4)

    def test_past_rows_are_trailing_rows(self):
        for past, t_len, window in ((1, 1, 1), (3, 2, 2), (6, 1, 3), (2, 4, 8)):
            full = window_mask(past + t_len, window)
            assert np.array_equal(window_mask(t_len, window, past), full[past:])


@pytest.mark.parametrize("latent_dim", [None, 3])
@pytest.mark.parametrize("past", [1, 3, 6])
def test_span_with_past_continues_sequence(latent_dim, past):
    # Attending a span after `past` earlier rows gives the trailing rows of
    # one pass over the whole sequence.
    d = 8
    cfg = AttentionConfig(window=3, heads=2, head_dim=4, latent_dim=latent_dim)
    params = make_params(d, seed=30, latent_dim=latent_dim)
    attend = local_attention if latent_dim is None else latent_attention
    h = np.random.default_rng(31).standard_normal((7, d))
    whole = attend(Tensor(h), cfg, params).data
    span = attend(Tensor(h[past:]), cfg, params, past=Tensor(h[:past])).data
    assert np.max(np.abs(span - whole[past:])) < 1e-12


class TestLocalAttention:
    def test_single_token_is_value_projection(self):
        d = 8
        cfg = AttentionConfig(window=4, heads=2, head_dim=4)
        params = make_params(d, seed=1)
        h = Tensor(np.random.default_rng(2).standard_normal((1, d)))
        out = local_attention(h, cfg, params)
        qkv = h.data @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:3 * d]
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_window_one_collapses_to_self(self):
        d = 8
        cfg = AttentionConfig(window=1, heads=2, head_dim=4)
        params = make_params(d, seed=3)
        h = Tensor(np.random.default_rng(4).standard_normal((5, d)))
        out = local_attention(h, cfg, params)
        qkv = h.data @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:3 * d]
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_identical_keys_uniform_weights(self):
        d = 4
        cfg = AttentionConfig(window=2, heads=1, head_dim=4)
        params = make_params(d, seed=5)
        # Zero key weights give the key b_k at every position, so each row
        # reads the plain mean of the value rows in its window.
        params["attn.w_qkv"].data[:, d:2 * d] = 0.0
        h = np.random.default_rng(6).standard_normal((3, d))
        out = local_attention(Tensor(h), cfg, params).data
        qkv = h @ params["attn.w_qkv"].data + params["attn.b_qkv"].data
        v = qkv[:, 2 * d:]
        for t in range(3):
            mean = v[max(0, t - 1):t + 1].mean(axis=0)
            expect = mean @ params["attn.w_o"].data + params["attn.b_o"].data
            assert np.max(np.abs(out[t] - expect)) < 1e-12

    def test_causality_perturbation(self):
        d = 8
        cfg = AttentionConfig(window=3, heads=2, head_dim=4)
        params = make_params(d, seed=7)
        rng = np.random.default_rng(8)
        h = rng.standard_normal((6, d))
        base = local_attention(Tensor(h.copy()), cfg, params).data
        h2 = h.copy()
        h2[4] += rng.standard_normal(d)
        pert = local_attention(Tensor(h2), cfg, params).data
        assert np.array_equal(base[:4], pert[:4])
        assert np.max(np.abs(base[4] - pert[4])) > 0.0

    def test_window_locality_perturbation(self):
        d = 8
        cfg = AttentionConfig(window=2, heads=2, head_dim=4)
        params = make_params(d, seed=9)
        rng = np.random.default_rng(10)
        h = rng.standard_normal((6, d))
        base = local_attention(Tensor(h.copy()), cfg, params).data
        h2 = h.copy()
        h2[0] += rng.standard_normal(d)
        pert = local_attention(Tensor(h2), cfg, params).data
        # Position 0 is outside the window of every t >= 2.
        assert np.array_equal(base[2:], pert[2:])

    def test_grad_check(self):
        d = 8
        cfg = AttentionConfig(window=3, heads=2, head_dim=4)
        params = make_params(d, seed=11)
        h = np.random.default_rng(12).standard_normal((4, d))

        def loss(p):
            r = local_attention(Tensor(h), cfg, p)
            return (r * r).sum()

        assert grad_check(loss, params, sample=8).passed


class TestLatentAttention:
    def test_requires_latent_dim(self):
        cfg = AttentionConfig(window=2, heads=1, head_dim=4)
        with pytest.raises(NumericsError):
            latent_attention(Tensor(np.zeros((2, 4))), cfg, make_params(4))

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
        cfg_local = AttentionConfig(window=3, heads=2, head_dim=4)
        cfg_latent = AttentionConfig(window=3, heads=2, head_dim=4, latent_dim=d)
        a = local_attention(h, cfg_local, base).data
        b = latent_attention(h, cfg_latent, latent).data
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rank_one_keys(self):
        d = 4
        cfg = AttentionConfig(window=2, heads=1, head_dim=4, latent_dim=1)
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
        cfg = AttentionConfig(window=4, heads=2, head_dim=4, latent_dim=3)
        params = make_params(d, seed=17, latent_dim=3)
        h = Tensor(np.random.default_rng(18).standard_normal((1, d)))
        out = latent_attention(h, cfg, params)
        z = h.data @ params["attn.w_z"].data + params["attn.b_z"].data
        v = z @ params["attn.w_v_up"].data + params["attn.b_v_up"].data
        expect = v @ params["attn.w_o"].data + params["attn.b_o"].data
        assert np.max(np.abs(out.data - expect)) < 1e-12

    def test_grad_check(self):
        d = 8
        cfg = AttentionConfig(window=3, heads=2, head_dim=4, latent_dim=3)
        params = make_params(d, seed=19, latent_dim=3)
        h = np.random.default_rng(20).standard_normal((4, d))

        def loss(p):
            r = latent_attention(Tensor(h), cfg, p)
            return (r * r).sum()

        assert grad_check(loss, params, sample=8).passed
