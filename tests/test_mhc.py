"""Multi-stream residual routing: Sinkhorn normalization and the
pre-mix / transport / post-mix path."""

import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lpcsm import mhc
from lpcsm.config import load_run_config
from lpcsm.model import init_params
from lpcsm.numerics import Tensor, NumericsError, ParameterStore, grad_check
from lpcsm.mhc import sinkhorn_normalize, mhc_route, route_gain
from lpcsm.train import train

import reference_ops as ops

CONFIGS = Path(__file__).resolve().parent.parent / "perfbench" / "configs"


def every_pass_sinkhorn(logits, iters, g):
    """Sinkhorn that runs every pass, with no fixed-point stop: its output
    and the logits' gradient for an upstream gradient g."""
    m0 = np.exp(logits)
    m, passes = m0, []
    for i in range(iters + mhc.MAX_EXTRA_PASSES):
        for axis in (1, 0):
            s = m.sum(axis=axis, keepdims=True)
            m = m / s
            passes.append((axis, s, m))
        if i + 1 >= iters and mhc._marginal_residual(m) <= mhc.MARGINAL_TOL:
            break
    for axis, s, y in reversed(passes):
        g = (g - (g * y).sum(axis=axis, keepdims=True)) / s
    return m, g * m0


class TestSinkhorn:
    def test_uniform_from_zero_logits(self):
        m = sinkhorn_normalize(Tensor(np.zeros((2, 2))), iters=1).data
        assert np.max(np.abs(m - 0.5)) < 1e-12

    def test_identity_limit(self):
        m = sinkhorn_normalize(Tensor(np.eye(3) * 40.0), iters=30).data
        assert np.max(np.abs(m - np.eye(3))) < 1e-6

    def test_doubly_stochastic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            logits = Tensor(rng.uniform(-5, 5, size=(3, 3)))
            m = sinkhorn_normalize(logits, iters=50).data
            assert np.max(np.abs(m.sum(axis=0) - 1.0)) < 1e-6
            assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-6
            assert np.all(m > 0.0)

    def test_invalid_inputs(self):
        with pytest.raises(NumericsError):
            sinkhorn_normalize(Tensor(np.zeros((2, 2))), iters=0)
        with pytest.raises(NumericsError):
            sinkhorn_normalize(Tensor(np.zeros((2, 3))), iters=1)

    @pytest.mark.parametrize("logits", [
        np.array([[800.0, 0.0], [0.0, 0.0]]),     # exp overflows to inf
        np.array([[-800.0, -800.0], [0.0, 0.0]]),  # a row underflows to 0
    ])
    def test_nonfinite_fails_without_extra_passes(self, monkeypatch, logits):
        # Both give NaN marginals; no extra pass can mend them.
        passes = []
        residual = mhc._marginal_residual
        monkeypatch.setattr(mhc, "_marginal_residual",
                            lambda m: passes.append(1) or residual(m))
        with pytest.raises(NumericsError):
            sinkhorn_normalize(Tensor(logits), iters=5)
        assert len(passes) <= 1

    def test_overflow_raises_without_warning(self):
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="non-finite sinkhorn exp"):
                sinkhorn_normalize(Tensor(np.array([[800.0, 0.0], [0.0, 0.0]])),
                                   iters=5)

    def test_underflow_raises_without_warning(self):
        # A row of exp(logits) that underflows to 0 divides 0 by 0 in the
        # row pass; the marginal check reports it, not a RuntimeWarning.
        with warnings.catch_warnings(), np.errstate(divide="warn", invalid="warn"):
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="non-finite sinkhorn marginals"):
                sinkhorn_normalize(Tensor(np.array([[-800.0, -800.0], [0.0, 0.0]])),
                                   iters=5)

    def test_one_node_same_floats(self):
        logits = Tensor(np.random.default_rng(7).uniform(-5, 5, (4, 4)),
                        requires_grad=True)
        out = sinkhorn_normalize(logits, iters=3)
        assert out._prev == (logits,)
        # The former unrolled form: two tape nodes per half-pass, run for
        # as many passes as the node's forward ran.
        m, passes = ops.exp(logits), 0
        while True:
            m = ops.div(m, m.sum(axis=1, keepdims=True))
            m = ops.div(m, m.sum(axis=0, keepdims=True))
            passes += 1
            if passes >= 3 and mhc._marginal_residual(m.data) <= mhc.MARGINAL_TOL:
                break
        assert np.array_equal(out.data, m.data)

    @pytest.mark.parametrize("iters", [1, 2, 20])
    @pytest.mark.parametrize("kind", ["zero", "rank-one", "random"])
    def test_same_bytes_as_every_pass(self, kind, iters):
        # Zero and rank-one (a_i + b_j) logits reach the fixed point on
        # passes 2 and 3, before 20 forced passes end; these random ones
        # reach the marginal tolerance first.
        rng = np.random.default_rng(11)
        logits = {"zero": np.zeros((4, 4)),
                  "rank-one": rng.uniform(-2, 2, (4, 1)) + rng.uniform(-2, 2, 4),
                  "random": rng.uniform(-3, 3, (4, 4))}[kind]
        weights = rng.standard_normal((4, 4))
        t = Tensor(logits, requires_grad=True)
        out = sinkhorn_normalize(t, iters)
        (out * Tensor(weights)).sum().backward()
        m, g = every_pass_sinkhorn(logits, iters, weights)
        assert out.data.tobytes() == m.tobytes()
        assert t.grad.tobytes() == g.tobytes()

    def test_grad_check_covers_extra_passes(self, monkeypatch):
        logits = np.random.default_rng(8).uniform(-5, 5, (4, 4))
        checks = []
        residual = mhc._marginal_residual
        monkeypatch.setattr(mhc, "_marginal_residual",
                            lambda m: checks.append(1) or residual(m))
        sinkhorn_normalize(Tensor(logits), iters=1)
        assert len(checks) > 5  # the stop needs passes past `iters`
        params = ParameterStore()
        params.add("logits", logits)
        weights = Tensor(np.random.default_rng(9).standard_normal((4, 4)))

        def loss(p):
            return (sinkhorn_normalize(p["logits"], iters=1) * weights).sum()

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_grad_through_iterations(self):
        params = ParameterStore()
        params.add("logits", np.random.default_rng(1).uniform(-1, 1, (3, 3)))

        def loss(p):
            m = sinkhorn_normalize(p["logits"], iters=5)
            return (m * Tensor(np.arange(9.0).reshape(3, 3))).sum()

        assert grad_check(loss, params).passed


class TestRoute:
    def test_degenerate_recovers_plain_residual(self):
        rng = np.random.default_rng(2)
        h = Tensor(rng.standard_normal((4, 6)))
        update = Tensor(rng.standard_normal((4, 6)))
        gain = route_gain(Tensor(np.array([1.0, 0.0])), Tensor(np.array([1.0, 0.0])),
                          Tensor(np.eye(2) * 40.0), iters=20)
        out = mhc_route(h, update, gain).data
        assert np.max(np.abs(out - (h.data + update.data))) < 1e-12

    def test_uniform_symmetry(self):
        rng = np.random.default_rng(3)
        h = Tensor(rng.standard_normal((3, 5)))
        update = Tensor(rng.standard_normal((3, 5)))
        gain = route_gain(Tensor(np.array([1.0, 1.0])), Tensor(np.array([0.5, 0.5])),
                          Tensor(np.zeros((2, 2))), iters=1)
        out = mhc_route(h, update, gain).data
        assert np.max(np.abs(out - (h.data + update.data))) < 1e-12

    def test_matrix_arithmetic_reevaluation(self):
        rng = np.random.default_rng(4)
        s, t_len, d = 3, 4, 5
        h = rng.standard_normal((t_len, d))
        update = rng.standard_normal((t_len, d))
        pre = rng.standard_normal(s)
        post = rng.standard_normal(s)
        logits = rng.uniform(-1, 1, (s, s))
        out = mhc_route(Tensor(h), Tensor(update),
                        route_gain(Tensor(pre), Tensor(post), Tensor(logits),
                                   iters=4)).data

        m = np.exp(logits)
        passes = 0
        while True:
            m = m / m.sum(axis=1, keepdims=True)
            m = m / m.sum(axis=0, keepdims=True)
            passes += 1
            resid = max(np.abs(m.sum(0) - 1).max(), np.abs(m.sum(1) - 1).max())
            if passes >= 4 and resid <= 1e-7:
                break
        flat = h.reshape(1, -1)
        lifted = np.stack([pre[i] * flat[0] for i in range(s)])
        collapsed = (post.reshape(1, s) @ (m @ lifted)).reshape(t_len, d)
        assert np.max(np.abs(out - (collapsed + update))) < 1e-12

    def test_vector_and_batch_agree(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(6)
        update = rng.standard_normal(6)
        gain = route_gain(Tensor(rng.standard_normal(2)), Tensor(rng.standard_normal(2)),
                          Tensor(rng.uniform(-1, 1, (2, 2))), 3)
        as_vec = mhc_route(Tensor(h), Tensor(update), gain).data
        as_row = mhc_route(Tensor(h.reshape(1, 6)),
                           Tensor(update.reshape(1, 6)), gain).data[0]
        assert np.array_equal(as_vec, as_row)

    def test_stream_validation(self):
        # Pre/post mix vectors must match the [S, S] transport logits.
        two, three = Tensor(np.ones(2)), Tensor(np.ones(3))
        logits = Tensor(np.zeros((2, 2)))
        with pytest.raises(NumericsError):
            route_gain(three, two, logits, iters=1)
        with pytest.raises(NumericsError):
            route_gain(two, three, logits, iters=1)

    def test_gain_is_one_node(self):
        # One node over Sinkhorn's M, pre and post, checked against
        # central differences in all three parameters.
        rng = np.random.default_rng(7)
        params = ParameterStore()
        params.add("pre", rng.standard_normal(3))
        params.add("post", rng.standard_normal(3))
        params.add("logits", rng.uniform(-1, 1, (3, 3)))
        gain = route_gain(params["pre"], params["post"], params["logits"], 4)
        m, pre, post = gain._prev
        assert (pre, post) == (params["pre"], params["post"])
        assert m._prev == (params["logits"],)

        def loss(p):
            gain = route_gain(p["pre"], p["post"], p["logits"], 4)
            return gain * gain + gain

        report = grad_check(loss, params)
        assert report.passed, report.max_rel_error

    def test_grad_check(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((3, 4))
        update = rng.standard_normal((3, 4))
        params = ParameterStore()
        params.add("pre", rng.standard_normal(2))
        params.add("post", rng.standard_normal(2))
        params.add("logits", rng.uniform(-1, 1, (2, 2)))

        def loss(p):
            gain = route_gain(p["pre"], p["post"], p["logits"], 4)
            out = mhc_route(Tensor(h), Tensor(update), gain)
            return (out * out).sum()

        assert grad_check(loss, params).passed


class TestTransportFromInit:
    """From mHC's default init (pre = 1, post = 1/S, logits = 0) the logits'
    gradient is exactly 0 and pre and post each get one update for all
    streams, so training moves only the gain S * p * q: the transport
    never trains, and Sinkhorn only ever sees zero logits."""

    @pytest.mark.parametrize("streams", [4, 3])
    def test_copy_run_keeps_transport_at_init(self, streams):
        run = load_run_config(str(CONFIGS / "train-copy-t64.yaml"))
        run = replace(run, model=replace(run.model, mhc_streams=streams))
        init = init_params(run.model, seed=run.train.seed)
        params = train(run, steps=20).params
        routed = [n[:-len("logits")] for n in params.names()
                  if n.endswith("mhc.logits")]
        assert len(routed) == run.model.layers
        for p in routed:
            assert (params[p + "logits"].data.tobytes()
                    == init[p + "logits"].data.tobytes())
            for name in (p + "pre", p + "post"):
                assert np.ptp(params[name].data) == 0.0
            # the gain did train
            assert not np.array_equal(params[p + "pre"].data, init[p + "pre"].data)
