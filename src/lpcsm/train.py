"""Training loop, evaluation, the delayed-identifier probe, and the
ablation driver."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from .numerics import (
    ParameterStore, NumericsError, forward_backward, keep_freed_memory, no_grad,
)
from .model import ModelConfig, init_params, model_forward, ablation_variants
from .objective import (
    LossWeights, SgdConfig, SgdState, LossBreakdown,
    lm_loss, aux_losses, total_loss, log_softmax,
)
from .data import SyntheticTask, make_batch, recall_key_slice, EOS
from .config import ConfigError, RunConfig, check_task_fits

METRICS_HEADER = "step,lm,pred,sparse,mem,stop,total,effective_ratio,tokens_per_second"


class TrainingDivergedError(Exception):
    """A non-finite loss, gradient or update; carries the step index and
    what went non-finite."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"training diverged at step {step}: {detail}")
        self.step = step


def sequence_loss(tokens: np.ndarray, targets: np.ndarray,
                  params: ParameterStore, cfg: ModelConfig,
                  weights: LossWeights,
                  soft_mask: bool = False) -> tuple[LossBreakdown, float]:
    """Total objective for one teacher-forced [T] sequence, or for a [B, T]
    batch in one forward, where each term is the batch mean of its
    per-sequence value; and the mean mask density."""
    logits, aux = model_forward(tokens, params, cfg, soft_mask=soft_mask)
    lm = lm_loss(logits.lm, targets)
    eos_targets = (targets == EOS).astype(np.float64)
    parts = aux_losses(aux, logits.stop, eos_targets, cfg)
    breakdown = total_loss(lm, parts, weights)
    ratio = float(np.mean([a.effective_ratio for a in aux])) if aux else 0.0
    return breakdown, ratio


@dataclass
class TrainResult:
    params: ParameterStore
    metrics: list  # rows matching METRICS_HEADER
    final_lm: float
    final_ratio: float
    tokens_per_second: float  # median of the per-step values


def train(run: RunConfig, steps: int | None = None, seed: int | None = None,
          metrics_out=None) -> TrainResult:
    """Seeded deterministic training; one CSV row per step."""
    steps = run.train.steps if steps is None else steps
    seed = run.train.seed if seed is None else seed
    cfg = run.model
    keep_freed_memory()
    params = init_params(cfg, seed=seed)
    opt = SgdState()
    if metrics_out is not None:
        metrics_out.write(METRICS_HEADER + "\n")
    metrics = []
    final_lm = float("nan")
    final_ratio = 0.0
    for step in range(steps):
        t0 = time.perf_counter()
        inputs, targets = make_batch(run.task, run.train.batch_size, index=step)
        try:
            breakdown, final_ratio = sequence_loss(inputs, targets, params,
                                                   cfg, run.loss)
            grads = forward_backward(breakdown.total, params)
        except NumericsError as e:
            raise TrainingDivergedError(step, str(e)) from e
        vals = breakdown.values()
        for k, v in vals.items():
            if not np.isfinite(v):
                raise TrainingDivergedError(step, f"{k} is non-finite")
        try:
            opt.step(params, grads, run.optimizer)
        except NumericsError as e:
            raise TrainingDivergedError(step, str(e)) from e
        elapsed = time.perf_counter() - t0
        tps = inputs.size / elapsed
        final_lm = vals["lm"]
        row = (step, vals["lm"], vals["pred"], vals["sparse"], vals["mem"],
               vals["stop"], vals["total"], final_ratio, tps)
        metrics.append(row)
        if metrics_out is not None:
            metrics_out.write(",".join(map(repr, row[:-1])) + f",{tps:.1f}\n")
    tps = statistics.median(row[-1] for row in metrics) if metrics else 0.0
    return TrainResult(params=params, metrics=metrics, final_lm=final_lm,
                       final_ratio=final_ratio, tokens_per_second=tps)


def evaluate(params: ParameterStore, cfg: ModelConfig, task: SyntheticTask,
             weights: LossWeights, batch: int = 4,
             index: int = 10_000) -> dict[str, float]:
    """Mean loss terms over a held-out batch (distinct stream index)."""
    inputs, targets = make_batch(task, batch, index=index)
    with no_grad():
        breakdown, _ = sequence_loss(inputs, targets, params, cfg, weights)
    return breakdown.values()


@dataclass
class ProbeSpec:
    n_prompts: int = 6
    prompt_len: int = 192
    distractor_len: int = 128
    key_len: int = 8
    seed: int = 1234

    def __post_init__(self):
        # The prompt layout is checked where the prompts are built, as a
        # SyntheticTask; make_batch needs at least one row.
        if self.n_prompts < 1:
            raise ConfigError("probe needs n_prompts >= 1")


@dataclass
class ProbeResult:
    key_cross_entropy: float
    prompt_length: int


def probe_delayed_identifier(params: ParameterStore, cfg: ModelConfig,
                             spec: ProbeSpec | None = None) -> ProbeResult:
    """Teacher-forced key cross-entropy on delayed-identifier prompts."""
    spec = spec or ProbeSpec()
    task = SyntheticTask(
        kind="key-recall", vocab_size=cfg.vocab_size, seq_len=spec.prompt_len,
        key_len=spec.key_len, distractor_len=spec.distractor_len, seed=spec.seed,
    )
    check_task_fits(task, cfg, spec.n_prompts)
    inputs, targets = make_batch(task, spec.n_prompts, index=0)
    with no_grad():
        logits, _ = model_forward(inputs, params, cfg)
    lp = log_softmax(logits.lm.data)
    picked = np.take_along_axis(lp, targets[..., None], axis=-1)[..., 0]
    ce = -float(picked[:, recall_key_slice(task)].mean())
    return ProbeResult(key_cross_entropy=ce, prompt_length=spec.prompt_len)


@dataclass
class AblationRow:
    variant: str
    final_lm: float
    delta_pct: float
    tokens_per_second: float
    final_ratio: float


def ablate(run: RunConfig) -> list[AblationRow]:
    """Train the full model and each single-toggle ablation on the same
    seeded data stream."""
    rows = []
    full = train(run)
    rows.append(AblationRow("Full", full.final_lm, 0.0,
                            full.tokens_per_second, full.final_ratio))
    for name, model in ablation_variants(run.model).items():
        res = train(replace(run, model=model))
        delta = 100.0 * (res.final_lm - full.final_lm) / full.final_lm
        rows.append(AblationRow(name, res.final_lm, delta,
                                res.tokens_per_second, res.final_ratio))
    return rows
