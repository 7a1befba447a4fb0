"""Predictive correction: initial estimate and additive refinement."""

import numpy as np
import pytest

from lpcsm.numerics import Tensor, NumericsError, ParameterStore, grad_check
from lpcsm.correction import predict_init, refine_step

import reference_ops as ops


def make_params(d, seed=0, zero=False):
    rng = np.random.default_rng(seed)
    params = ParameterStore()

    def mat(name, rows, cols):
        val = np.zeros((rows, cols)) if zero else rng.standard_normal((rows, cols)) / np.sqrt(rows)
        params.add(name, val)

    mat("pred.w1", 2 * d, d); params.add("pred.b1", np.zeros(d))
    mat("pred.w2", d, d); params.add("pred.b2", np.zeros(d))
    mat("refine.w1", 3 * d, d); params.add("refine.b1", np.zeros(d))
    mat("refine.w2", d, d); params.add("refine.b2", np.zeros(d))
    return params


def unroll(a, r, h, params, steps):
    """predict_init, then `steps` refinements, as the block runs them."""
    est = predict_init(a, r, params)
    for _ in range(steps):
        est = refine_step(a, r, h, est, params)
    return est


def mlp(x, params, prefix):
    h = np.tanh(x @ params[prefix + "w1"].data + params[prefix + "b1"].data)
    return h @ params[prefix + "w2"].data + params[prefix + "b2"].data


class TestPredictInit:
    def test_zero_weights_zero_estimate(self):
        d = 4
        params = make_params(d, zero=True)
        rng = np.random.default_rng(1)
        est = predict_init(Tensor(rng.standard_normal(d)),
                           Tensor(rng.standard_normal(d)), params)
        assert np.array_equal(est.data, np.zeros(d))

    def test_duplicated_input(self):
        d = 4
        params = make_params(d, seed=2)
        a = np.random.default_rng(3).standard_normal(d)
        est = predict_init(Tensor(a), Tensor(a), params)
        expect = mlp(np.concatenate([a, a]), params, "pred.")
        assert np.max(np.abs(est.data - expect)) < 1e-12

    def test_width_mismatch(self):
        params = make_params(4)
        with pytest.raises(NumericsError):
            predict_init(Tensor(np.zeros(4)), Tensor(np.zeros(3)), params)

    def test_grad_check(self):
        d = 4
        params = make_params(d, seed=4)
        rng = np.random.default_rng(5)
        a, r = rng.standard_normal(d), rng.standard_normal(d)

        def loss(p):
            est = predict_init(Tensor(a), Tensor(r), p)
            return (est * est).sum()

        assert grad_check(loss, params).passed


class TestRefineStep:
    def test_zero_refine_keeps_estimate(self):
        d = 4
        params = make_params(d, seed=6)
        for name in ("refine.w1", "refine.w2"):
            params[name].data = np.zeros_like(params[name].data)
        rng = np.random.default_rng(7)
        a, r, h = (Tensor(rng.standard_normal(d)) for _ in range(3))
        s0 = predict_init(a, r, params)
        s1 = refine_step(a, r, h, s0, params)
        assert np.array_equal(s1.data, s0.data)

    def test_zero_error_slice(self):
        d = 4
        params = make_params(d, seed=8)
        rng = np.random.default_rng(9)
        a, r = (rng.standard_normal(d) for _ in range(2))
        s0 = predict_init(Tensor(a), Tensor(r), params)
        h = Tensor(s0.data.copy())  # estimate already equals h
        s1 = refine_step(Tensor(a), Tensor(r), h, s0, params)
        delta = mlp(np.concatenate([a, r, np.zeros(d)]), params, "refine.")
        assert np.max(np.abs(s1.data - (s0.data + delta))) < 1e-12

    def test_manual_unroll_oracle(self):
        d = 5
        params = make_params(d, seed=12)
        rng = np.random.default_rng(13)
        a, r, h = (rng.standard_normal(d) for _ in range(3))
        got = unroll(Tensor(a), Tensor(r), Tensor(h), params, steps=2)
        est = mlp(np.concatenate([a, r]), params, "pred.")
        for _ in range(2):
            est = est + mlp(np.concatenate([a, r, h - est]), params, "refine.")
        assert np.max(np.abs(got.data - est)) < 1e-12

    def test_grad_through_unroll(self):
        d = 4
        params = make_params(d, seed=14)
        rng = np.random.default_rng(15)
        a, r, h = (rng.standard_normal(d) for _ in range(3))

        def loss(p):
            e = ops.sub(Tensor(h), unroll(Tensor(a), Tensor(r), Tensor(h), p,
                                          steps=2))
            return (e * e).sum()

        assert grad_check(loss, params, sample=8).passed

