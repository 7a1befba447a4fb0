"""Acceptance gate: nine end-to-end criteria, each printing one pass/fail
line in the terminal summary.

Every tolerance here is load-bearing; the per-module suites cover the
finer-grained contracts behind these checks.
"""

import itertools
import time

import numpy as np

from lpcsm.numerics import Tensor, forward_backward, grad_check
from lpcsm.ont import verify_properties
from lpcsm.mhc import sinkhorn_normalize
from lpcsm.controller import clamp_ratio
from lpcsm.model import (
    ModelConfig, init_params, model_forward, controller_params,
)
from lpcsm.objective import LossWeights, SgdConfig, SgdState
from lpcsm.runtime import init_cache, step_decode
from lpcsm.data import SyntheticTask, make_batch
from lpcsm.config import RunConfig, TrainSettings
from lpcsm.train import (
    train, sequence_loss, evaluate, probe_delayed_identifier, ProbeSpec,
)
from lpcsm.checkpoint import save_checkpoint, load_checkpoint

from conftest import record_acceptance
from reference_controller import hard_mask

TOGGLES = ("slow_memory", "predictive_coding", "ont", "stop_head", "mhc")


def _record(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    record_acceptance(f"criterion {num} ({name}): {status} — {detail}")


class TestCriterion1OntSuite:
    def test_ont_property_suite(self):
        checks, elapsed = verify_properties(trials=1000, seed=0)
        failed = [c.name for c in checks if not c.passed]
        worst = max(c.max_error for c in checks)
        ok = not failed and elapsed < 5.0
        _record(1, "novelty-transport properties", ok,
                f"7 properties x 1000 trials, worst err {worst:.2e}, "
                f"{elapsed:.2f}s")
        assert ok, (failed, elapsed)


class TestCriterion2GradientChecks:
    def test_all_toggle_combinations(self):
        t0 = time.perf_counter()
        tokens = np.array([2, 5, 3, 7, 4, 6, 8, 9])
        targets = np.array([5, 3, 7, 4, 6, 8, 9, 0])
        weights = LossWeights()
        worst_overall = 0.0
        failures = []
        for i, combo in enumerate(itertools.product([True, False], repeat=5)):
            cfg = ModelConfig(
                vocab_size=11, width=16, layers=2, window=4, heads=4,
                chunk_size=3, s_ref=2, max_seq_len=16, ratio_init=0.23,
                **dict(zip(TOGGLES, combo)),
            )
            params = init_params(cfg, seed=7)

            def loss(p):
                b, _ = sequence_loss(tokens, targets, p, cfg, weights,
                                     soft_mask=True)
                return b.total

            report = grad_check(loss, params, eps=1e-5, tol=1e-4,
                                sample=3, seed=i)
            worst_overall = max(worst_overall, report.worst)
            if not report.passed:
                failures.append((combo, report.worst))
        elapsed = time.perf_counter() - t0
        ok = not failures and elapsed < 300.0
        _record(2, "finite-difference gradients", ok,
                f"32 toggle combinations, 2-layer d=16 model, worst rel err "
                f"{worst_overall:.2e} (tol 1e-4), {elapsed:.1f}s")
        assert ok, (failures, elapsed)


class TestCriterion3DecodeParity:
    def test_parity_random_cases(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(42)
        worst = 0.0
        for case in range(200):
            cfg = ModelConfig(
                vocab_size=int(rng.integers(5, 16)),
                width=8,
                layers=int(rng.integers(1, 3)),
                window=int(rng.integers(1, 6)),
                heads=int(rng.choice([1, 2, 4])),
                chunk_size=int(rng.integers(1, 6)),
                s_ref=int(rng.integers(0, 3)),
                max_seq_len=16,
                ratio_init=0.23,
                latent_dim=int(rng.integers(2, 9)) if rng.random() < 0.2 else None,
                slow_memory=bool(rng.random() < 0.8),
                predictive_coding=bool(rng.random() < 0.8),
                ont=bool(rng.random() < 0.8),
                stop_head=bool(rng.random() < 0.8),
                mhc=bool(rng.random() < 0.8),
            )
            params = init_params(cfg, seed=case)
            if cfg.mhc:
                # Move the routing weights off the identity initialization.
                for l in range(cfg.layers):
                    params[f"layers.{l}.mhc.logits"].data = \
                        rng.uniform(-1, 1, (cfg.mhc_streams, cfg.mhc_streams))
            t_len = int(rng.integers(1, 13))
            tokens = rng.integers(0, cfg.vocab_size, size=t_len)
            full, _ = model_forward(tokens, params, cfg)
            cache = init_cache(cfg)
            rows = []
            for tok in tokens:
                logits, cache = step_decode(int(tok), cache, params, cfg)
                rows.append(logits.lm.data)
            diff = float(np.max(np.abs(np.stack(rows) - full.lm.data)))
            worst = max(worst, diff)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 120.0
        _record(3, "decode parity", ok,
                f"200 random cases incl. partial chunks, worst max-abs gap "
                f"{worst:.2e} (tol 1e-9), {elapsed:.1f}s")
        assert ok, (worst, elapsed)


class TestCriterion4ControllerContracts:
    def test_mask_cardinality(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            t_len = int(rng.integers(1, 65))
            ratio = float(rng.uniform(0.01, 1.0))
            m = hard_mask(Tensor(rng.standard_normal(t_len)), ratio)
            assert int(m.hard.data.sum()) == int(np.ceil(ratio * t_len))

    def test_fixed_mode_ratio_frozen(self):
        cfg = ModelConfig(vocab_size=11, width=8, layers=1, window=3, heads=2,
                          chunk_size=3, s_ref=1, max_seq_len=16,
                          ratio_init=0.23, adaptive_ratio=False)
        run = RunConfig(
            model=cfg, loss=LossWeights(),
            optimizer=SgdConfig(lr=0.05, momentum=0.9, clip_norm=1.0),
            task=SyntheticTask(kind="copy", vocab_size=11, seq_len=12, key_len=3),
            train=TrainSettings(steps=100, batch_size=1, seed=0),
        )
        before = float(init_params(cfg, seed=0)["layers.0.ctrl.ratio_raw"].data)
        result = train(run)
        after = float(result.params["layers.0.ctrl.ratio_raw"].data)
        assert before == after

    def test_adaptive_ratio_stays_bounded(self):
        cfg = ModelConfig(vocab_size=11, width=8, layers=1, window=3, heads=2,
                          chunk_size=3, s_ref=1, max_seq_len=16,
                          ratio_init=0.23, adaptive_ratio=True)
        task = SyntheticTask(kind="copy", vocab_size=11, seq_len=12, key_len=3)
        weights = LossWeights()
        params = init_params(cfg, seed=0)
        opt = SgdState()
        ocfg = SgdConfig(lr=0.05, momentum=0.9, clip_norm=1.0)
        t0 = time.perf_counter()
        lo, hi = 1.0, 0.0
        moved = False
        raw0 = float(params["layers.0.ctrl.ratio_raw"].data)
        for step in range(2000):
            x, y = make_batch(task, 1, index=step)
            b, _ = sequence_loss(x[0], y[0], params, cfg, weights)
            grads = forward_backward(b.total, params)
            opt.step(params, grads, ocfg)
            cp = controller_params(params, cfg, "layers.0.")
            ratio = float(clamp_ratio(cp).data)
            lo, hi = min(lo, ratio), max(hi, ratio)
            assert cfg.ratio_min < ratio < cfg.ratio_max
            moved = moved or float(params["layers.0.ctrl.ratio_raw"].data) != raw0
        elapsed = time.perf_counter() - t0
        ok = moved and cfg.ratio_min < lo and hi < cfg.ratio_max
        _record(4, "controller contracts", ok,
                f"cardinality exact on 1000 vectors; fixed ratio bit-frozen "
                f"over 100 steps; adaptive ratio in [{lo:.3f}, {hi:.3f}] "
                f"within ({cfg.ratio_min}, {cfg.ratio_max}) over 2000 steps, "
                f"{elapsed:.0f}s")
        assert ok


class TestCriterion5Sinkhorn:
    def test_doubly_stochastic_marginals(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        t0 = time.perf_counter()
        for _ in range(1000):
            s = int(rng.integers(2, 5))
            logits = rng.uniform(-5.0, 5.0, (s, s))
            m = sinkhorn_normalize(Tensor(logits), iters=20).data
            worst = max(worst,
                        float(np.max(np.abs(m.sum(axis=0) - 1.0))),
                        float(np.max(np.abs(m.sum(axis=1) - 1.0))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-6
        _record(5, "Sinkhorn marginals", ok,
                f"1000 trials, logits in [-5,5], worst marginal gap "
                f"{worst:.2e} (tol 1e-6), {elapsed:.1f}s")
        assert ok, worst


class TestCriterion6AblationEquivalences:
    def _run(self, cfg, steps=100):
        run = RunConfig(
            model=cfg, loss=LossWeights(),
            optimizer=SgdConfig(lr=0.05, momentum=0.9, clip_norm=1.0),
            task=SyntheticTask(kind="copy", vocab_size=11, seq_len=12, key_len=3),
            train=TrainSettings(steps=steps, batch_size=1, seed=1),
        )
        return train(run)

    def test_equivalences(self):
        base = dict(vocab_size=11, width=8, layers=1, window=3, heads=2,
                    chunk_size=3, s_ref=1, max_seq_len=16, ratio_init=0.23)

        # alpha_n = 0 with the transport on is the same training trajectory
        # as the transport off, bit for bit.
        a = self._run(ModelConfig(**base, alpha_n=0.0, ont=True))
        b = self._run(ModelConfig(**base, alpha_n=0.0, ont=False))
        traj_equal = all(ra[:-1] == rb[:-1]
                         for ra, rb in zip(a.metrics, b.metrics))
        params_equal = all(np.array_equal(ta.data, b.params[n].data)
                           for n, ta in a.params.items())

        # Degenerate routing weights reproduce the plain residual.
        cfg_on = ModelConfig(**base, mhc=True)
        cfg_off = ModelConfig(**base, mhc=False)
        params_on = init_params(cfg_on, seed=2)
        params_off = init_params(cfg_off, seed=2)
        s = cfg_on.mhc_streams
        pre = np.zeros(s); pre[0] = 1.0
        params_on["layers.0.mhc.pre"].data = pre.copy()
        params_on["layers.0.mhc.post"].data = pre.copy()
        params_on["layers.0.mhc.logits"].data = np.eye(s) * 40.0
        tokens = [2, 3, 4, 5, 6, 7]
        lm_on = model_forward(tokens, params_on, cfg_on)[0].lm.data
        lm_off = model_forward(tokens, params_off, cfg_off)[0].lm.data
        mhc_gap = float(np.max(np.abs(lm_on - lm_off)))

        ok = traj_equal and params_equal and mhc_gap <= 1e-12
        _record(6, "ablation equivalences", ok,
                f"alpha=0 transport == transport-off bit-exact over 100 "
                f"steps; degenerate routing gap {mhc_gap:.2e} (tol 1e-12)")
        assert ok, (traj_equal, params_equal, mhc_gap)


class TestCriterion7LearningSignal:
    def test_copy_task_learns(self):
        # Threshold 0.5*ln(32) ~ 1.733; the frozen reference configuration
        # reaches held-out lm ~ 0.06 by step 2000.
        cfg = ModelConfig(vocab_size=32, width=32, layers=2, window=8,
                          heads=4, chunk_size=16, s_ref=2, max_seq_len=64,
                          ratio_init=0.23)
        run = RunConfig(
            model=cfg, loss=LossWeights(),
            optimizer=SgdConfig(lr=0.02, momentum=0.9, clip_norm=10.0),
            task=SyntheticTask(kind="copy", vocab_size=32, seq_len=64,
                               key_len=2, seed=5),
            train=TrainSettings(steps=2000, batch_size=1, seed=3),
        )
        t0 = time.perf_counter()
        result = train(run)
        held_out = evaluate(result.params, cfg, run.task, run.loss, batch=8)
        elapsed = time.perf_counter() - t0
        threshold = 0.5 * np.log(32)
        ok = (result.final_lm < threshold and held_out["lm"] < threshold
              and elapsed < 600.0)
        _record(7, "learning signal", ok,
                f"copy task V=32 d=32 L=2 T=64, 2000 steps: final lm "
                f"{result.final_lm:.3f}, held-out lm {held_out['lm']:.3f} "
                f"(threshold {threshold:.3f}), {elapsed:.0f}s")
        assert ok, (result.final_lm, held_out["lm"], elapsed)


class TestCriterion8ProbeDirection:
    def test_trained_key_ce_below_untrained(self):
        cfg = ModelConfig(vocab_size=16, width=16, layers=2, window=8,
                          heads=4, chunk_size=8, s_ref=1, max_seq_len=64,
                          ratio_init=0.23)
        spec = ProbeSpec(n_prompts=4, prompt_len=48, distractor_len=16,
                         key_len=4, seed=11)
        untrained = probe_delayed_identifier(init_params(cfg, seed=4),
                                             cfg, spec)
        uniform = np.log(cfg.vocab_size)

        run = RunConfig(
            model=cfg, loss=LossWeights(),
            optimizer=SgdConfig(lr=0.02, momentum=0.9, clip_norm=10.0),
            task=SyntheticTask(kind="key-recall", vocab_size=16, seq_len=48,
                               key_len=4, distractor_len=16, seed=6),
            train=TrainSettings(steps=300, batch_size=1, seed=4),
        )
        result = train(run)
        trained = probe_delayed_identifier(result.params, cfg, spec)
        # Direction only, per the improvement-direction reading: no
        # magnitude claim beyond strictly lower.
        ok = trained.key_cross_entropy < untrained.key_cross_entropy
        _record(8, "probe direction", ok,
                f"untrained key CE {untrained.key_cross_entropy:.3f} "
                f"(ln V = {uniform:.3f}), trained {trained.key_cross_entropy:.3f}")
        assert ok, (untrained.key_cross_entropy, trained.key_cross_entropy)


class TestCriterion9DeterminismAndCheckpoints:
    def test_round_trip_and_trajectory_determinism(self, tmp_path):
        cfg = ModelConfig(vocab_size=11, width=8, layers=1, window=3, heads=2,
                          chunk_size=3, s_ref=1, max_seq_len=16,
                          ratio_init=0.23)
        run = RunConfig(
            model=cfg, loss=LossWeights(),
            optimizer=SgdConfig(lr=0.05, momentum=0.9, clip_norm=1.0),
            task=SyntheticTask(kind="copy", vocab_size=11, seq_len=12, key_len=3),
            train=TrainSettings(steps=25, batch_size=2, seed=9),
        )
        a = train(run)
        b = train(run)
        traj_equal = all(ra[:-1] == rb[:-1]
                         for ra, rb in zip(a.metrics, b.metrics))
        params_equal = all(np.array_equal(ta.data, b.params[n].data)
                           for n, ta in a.params.items())

        path = str(tmp_path / "model.ckpt")
        save_checkpoint(a.params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path, expect_cfg=cfg)
        round_trip = loaded_cfg == cfg and all(
            np.array_equal(t.data, loaded[n].data) for n, t in a.params.items()
        )
        ok = traj_equal and params_equal and round_trip
        _record(9, "determinism and checkpoints", ok,
                "same (config, seed) gives bit-identical trajectories; "
                "checkpoint round trip is bit-exact")
        assert ok, (traj_equal, params_equal, round_trip)
