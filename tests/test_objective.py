"""Five-term objective: each loss term's degenerate values, additivity,
zero-weight skipping, and the optimizer."""

import warnings

import numpy as np
import pytest

from lpcsm.numerics import (
    Tensor, NumericsError, ParameterStore, grad_check, forward_backward,
)
from lpcsm.model import ModelConfig, init_params
from lpcsm.objective import (
    LossWeights, lm_loss, log_softmax, binary_cross_entropy_logits,
    aux_losses, total_loss, SgdConfig, SgdState,
)
from lpcsm.train import sequence_loss

import reference_objective as reference
import reference_ops as ops


def tiny_cfg(**overrides):
    base = dict(vocab_size=11, width=8, layers=1, window=3, heads=2,
                chunk_size=3, s_ref=1, max_seq_len=16, ratio_init=0.23)
    base.update(overrides)
    return ModelConfig(**base)


class TestLmLoss:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 16)))
        loss = lm_loss(logits, np.zeros(5, dtype=np.int64))
        assert abs(loss.item() - np.log(16)) < 1e-12

    def test_confident_correct_is_zero(self):
        logits = np.full((3, 4), -1000.0)
        logits[np.arange(3), [1, 2, 0]] = 1000.0
        loss = lm_loss(Tensor(logits), [1, 2, 0])
        assert loss.item() < 1e-12

    def test_direct_log_prob(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 9))
        targets = rng.integers(0, 9, size=6)
        loss = lm_loss(Tensor(logits), targets).item()
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        expect = -np.log(p[np.arange(6), targets]).mean()
        assert abs(loss - expect) < 1e-12

    def test_gather_matches_one_hot_bitwise(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((7, 13)) * 4.0
        targets = rng.integers(0, 13, size=7)

        def one_hot_loss(x):
            onehot = np.zeros((7, 13))
            onehot[np.arange(7), targets] = 1.0
            return ops.neg(ops.mean(
                (reference.log_softmax(x) * Tensor(onehot)).sum(axis=-1)))

        results = []
        for loss_fn in (lambda x: lm_loss(x, targets), one_hot_loss):
            x = Tensor(logits, requires_grad=True)
            loss = loss_fn(x)
            loss.backward()
            results.append((loss.data, x.grad))
        (loss, grad), (ref_loss, ref_grad) = results
        assert loss.tobytes() == ref_loss.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

    def test_target_validation(self):
        with pytest.raises(NumericsError):
            lm_loss(Tensor(np.zeros((2, 4))), [0, 4])
        with pytest.raises(NumericsError):
            lm_loss(Tensor(np.zeros((2, 4))), [0])

    def test_log_softmax_normalized(self):
        rng = np.random.default_rng(1)
        ls = log_softmax(rng.standard_normal((4, 7)))
        assert np.max(np.abs(np.exp(ls).sum(axis=1) - 1.0)) < 1e-12


class TestStopLoss:
    def test_uninformative_logits(self):
        scores = Tensor(np.zeros(8))
        targets = np.array([0.0, 1, 0, 1, 0, 1, 0, 1])
        loss = binary_cross_entropy_logits(scores, targets)
        assert abs(loss.item() - np.log(2)) < 1e-12

    def test_direct_formula(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(10)
        y = (rng.random(10) > 0.5).astype(np.float64)
        loss = binary_cross_entropy_logits(Tensor(s), y).item()
        expect = (np.log1p(np.exp(s)) - s * y).mean()
        assert abs(loss - expect) < 1e-12

    def test_extreme_logits(self):
        # softplus(800) - 0 = 800 and softplus(-800) + 800 = 800; the
        # gradient is (sigmoid(s) - y) / 2.
        params = ParameterStore()
        params.add("s", np.array([800.0, -800.0]))
        loss = binary_cross_entropy_logits(params["s"], np.array([0.0, 1.0]))
        assert abs(loss.item() - 800.0) < 1e-12
        grads = forward_backward(loss, params)
        assert np.array_equal(grads["s"].data, [0.5, -0.5])


class TestAuxLosses:
    def _aux(self, cfg, tokens=(2, 3, 4, 5)):
        from lpcsm.model import model_forward

        params = init_params(cfg, seed=3)
        logits, aux = model_forward(list(tokens), params, cfg)
        return logits, aux

    def test_disabled_terms_are_exact_zero(self):
        cfg = tiny_cfg(predictive_coding=False, stop_head=False)
        logits, aux = self._aux(cfg)
        parts = aux_losses(aux, logits.stop, np.zeros(4), cfg)
        assert parts["pred"].item() == 0.0
        assert parts["stop"].item() == 0.0

    def test_zero_memory_means_zero_mem_term(self):
        cfg = tiny_cfg()
        _, aux = self._aux(cfg)
        for a in aux:
            a.fast_final = Tensor(np.zeros(cfg.width))
            a.slow_final = Tensor(np.zeros(cfg.width))
        parts = aux_losses(aux, Tensor(np.zeros(4)), np.zeros(4), cfg)
        assert parts["mem"].item() == 0.0

    def test_pred_term_is_mean_squared_error(self):
        cfg = tiny_cfg()
        logits, aux = self._aux(cfg)
        parts = aux_losses(aux, logits.stop, np.zeros(4), cfg)
        expect = np.mean([a.error_sq.data.mean() for a in aux])
        assert abs(parts["pred"].item() - expect) < 1e-12

    def test_stop_head_without_scores_rejected(self):
        cfg = tiny_cfg()
        _, aux = self._aux(cfg)
        with pytest.raises(NumericsError):
            aux_losses(aux, None, np.zeros(4), cfg)


class TestTotalLoss:
    def test_all_lambda_zero_total_is_lm(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=4)
        weights = LossWeights(0.0, 0.0, 0.0, 0.0)
        tokens = np.array([2, 3, 4, 5])
        targets = np.array([3, 4, 5, 0])
        breakdown, _ = sequence_loss(tokens, targets, params, cfg, weights)
        assert breakdown.total.item() == breakdown.lm.item()

    def test_arithmetic(self):
        parts = {"pred": Tensor(0.5), "sparse": Tensor(9.0),
                 "mem": Tensor(9.0), "stop": Tensor(9.0)}
        out = total_loss(Tensor(2.0), parts, LossWeights(1.0, 0.0, 0.0, 0.0))
        assert out.total.item() == 2.5

    def test_additivity(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=5)
        tokens = np.array([2, 3, 4, 5, 6])
        targets = np.array([3, 4, 5, 6, 0])
        w = LossWeights(0.1, 0.01, 0.001, 0.1)
        b, _ = sequence_loss(tokens, targets, params, cfg, w)
        manual = b.lm.item() + 0.1 * b.pred.item() + 0.01 * b.sparse.item() \
            + 0.001 * b.mem.item() + 0.1 * b.stop.item()
        assert abs(b.total.item() - manual) < 1e-12

    def test_nonnegative_terms(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=6)
        tokens = np.array([2, 3, 4, 5])
        targets = np.array([3, 4, 5, 0])
        b, _ = sequence_loss(tokens, targets, params, cfg, LossWeights())
        for v in b.values().values():
            assert v >= 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(NumericsError):
            LossWeights(lambda_pred=-0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_weight_rejected(self, value):
        with pytest.raises(NumericsError):
            LossWeights(lambda_stop=value)

    def test_full_grad_check(self):
        cfg = tiny_cfg()
        params = init_params(cfg, seed=7)
        tokens = np.array([2, 3, 4, 5, 6, 7])
        targets = np.array([3, 4, 5, 6, 7, 0])
        weights = LossWeights()

        def loss(p):
            b, _ = sequence_loss(tokens, targets, p, cfg, weights,
                                 soft_mask=True)
            return b.total

        report = grad_check(loss, params, sample=2, seed=1)
        assert report.passed, report.max_rel_error


class TestOptimizer:
    def test_plain_step(self):
        params = ParameterStore()
        params.add("w", np.array([1.0, 2.0]))
        opt = SgdState()
        g = {"w": Tensor(np.array([0.5, -0.5]))}
        opt.step(params, g, SgdConfig(lr=0.1, momentum=0.0, clip_norm=100.0))
        assert np.max(np.abs(params["w"].data - [0.95, 2.05])) < 1e-15

    def test_momentum_accumulates(self):
        params = ParameterStore()
        params.add("w", np.array([0.0]))
        opt = SgdState()
        cfg = SgdConfig(lr=1.0, momentum=0.5, clip_norm=100.0)
        g = {"w": Tensor(np.array([1.0]))}
        opt.step(params, g, cfg)   # v=1, w=-1
        opt.step(params, g, cfg)   # v=1.5, w=-2.5
        assert abs(params["w"].data[0] + 2.5) < 1e-15

    @pytest.mark.parametrize("kwargs", [
        dict(lr=0.0), dict(lr=-0.5), dict(lr=np.inf), dict(lr=np.nan),
        dict(momentum=-0.1), dict(momentum=1.0), dict(momentum=np.nan),
        dict(clip_norm=0.0), dict(clip_norm=-1.0), dict(clip_norm=np.inf),
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(NumericsError):
            SgdConfig(**kwargs)

    def test_overflowing_update_changes_nothing(self):
        params = ParameterStore()
        params.add("a", np.array([0.0]))
        params.add("b", np.array([1.7e308]))
        opt = SgdState()
        g = {"a": Tensor(np.array([1.0])), "b": Tensor(np.array([-1.0]))}
        cfg = SgdConfig(lr=1e308, momentum=0.0, clip_norm=10.0)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="'b' after the update"):
            opt.step(params, g, cfg)
        assert params["a"].data[0] == 0.0 and params["b"].data[0] == 1.7e308
        assert opt.velocity == {}

    def test_global_clip(self):
        params = ParameterStore()
        params.add("a", np.array([0.0]))
        params.add("b", np.array([0.0]))
        opt = SgdState()
        g = {"a": Tensor(np.array([3.0])), "b": Tensor(np.array([4.0]))}
        opt.step(params, g, SgdConfig(lr=1.0, momentum=0.0, clip_norm=1.0))
        # Global norm 5 clips to 1: the update direction is preserved.
        assert abs(params["a"].data[0] + 0.6) < 1e-12
        assert abs(params["b"].data[0] + 0.8) < 1e-12

    def test_global_clip_when_the_squared_norm_overflows(self):
        # Every gradient is finite, but 3e200 ** 2 is not: the clipped
        # step still moves the parameters, without a warning.
        params = ParameterStore()
        params.add("a", np.array([0.0]))
        params.add("b", np.array([0.0]))
        opt = SgdState()
        g = {"a": Tensor(np.array([3e200])), "b": Tensor(np.array([4e200]))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt.step(params, g, SgdConfig(lr=1.0, momentum=0.0, clip_norm=1.0))
        assert abs(params["a"].data[0] + 0.6) < 1e-12
        assert abs(params["b"].data[0] + 0.8) < 1e-12
        assert abs(opt.velocity["a"][0] - 0.6) < 1e-12

    @staticmethod
    def three_params():
        params = ParameterStore()
        for name, value in (("a", [1.0, 2.0]), ("b", [3.0]), ("c", [[4.0, 5.0]])):
            params.add(name, np.array(value))
        return params

    def test_parameter_without_gradient_keeps_value_and_momentum(self):
        params, opt = self.three_params(), SgdState()
        cfg = SgdConfig(lr=0.5, momentum=0.5, clip_norm=100.0)
        opt.step(params, {n: Tensor(np.ones(params[n].shape))
                          for n in ("a", "b", "c")}, cfg)
        b, v_b = params["b"].data.copy(), opt.velocity["b"].copy()
        opt.step(params, {n: Tensor(np.ones(params[n].shape))
                          for n in ("a", "c")}, cfg)
        assert np.array_equal(params["b"].data, b)
        assert np.array_equal(opt.velocity["b"], v_b)
        # v = 0.5 * 1 + 1 and a = 1 - 0.5 - 0.5 * 1.5 for a and c.
        assert np.array_equal(params["a"].data, [-0.25, 0.75])
        assert np.array_equal(params["c"].data, [[2.75, 3.75]])
        assert np.array_equal(opt.velocity["c"], [[1.5, 1.5]])

    def test_rebound_data_is_what_the_next_step_updates(self):
        params, opt = self.three_params(), SgdState()
        cfg = SgdConfig(lr=1.0, momentum=0.5, clip_norm=100.0)
        grads = {n: Tensor(np.ones(params[n].shape)) for n in ("a", "b", "c")}
        opt.step(params, grads, cfg)
        params["b"].data = np.array([10.0])
        opt.step(params, grads, cfg)
        assert np.array_equal(params["b"].data, [10.0 - 1.5])
        assert np.array_equal(params["a"].data, [1.0 - 1.0 - 1.5, 2.0 - 1.0 - 1.5])

    def test_refused_update_names_the_first_in_store_order(self):
        params, opt = self.three_params(), SgdState()
        cfg = SgdConfig(lr=1.0, momentum=0.5, clip_norm=1e301)
        opt.step(params, {n: Tensor(np.ones(params[n].shape))
                          for n in ("a", "b", "c")}, cfg)
        values = {n: t.data.copy() for n, t in params.items()}
        velocity = {n: v.copy() for n, v in opt.velocity.items()}
        # c precedes b in the grads, and both overflow at lr=1e10.
        grads = {"c": Tensor(np.full((1, 2), 1e300)), "a": Tensor(np.ones(2)),
                 "b": Tensor(np.array([-1e300]))}
        with np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="'b' after the update"):
            opt.step(params, grads, SgdConfig(lr=1e10, momentum=0.5,
                                              clip_norm=1e301))
        for n, t in params.items():
            assert np.array_equal(t.data, values[n]), n
        assert opt.velocity.keys() == velocity.keys()
        for n, v in opt.velocity.items():
            assert np.array_equal(v, velocity[n]), n
