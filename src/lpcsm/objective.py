"""Five-term training objective and the momentum-SGD optimizer."""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .numerics import (Tensor, ParameterStore, NumericsError, ConfigError,
                       check_finite, sigmoid, _accum, _op)
from .model import ModelConfig, LayerAux


@dataclass
class LossWeights:
    lambda_pred: float = 0.1
    lambda_sparse: float = 0.01
    lambda_mem: float = 0.001
    lambda_stop: float = 0.1

    def __post_init__(self):
        lams = (self.lambda_pred, self.lambda_sparse, self.lambda_mem,
                self.lambda_stop)
        if not all(math.isfinite(lam) and lam >= 0.0 for lam in lams):
            raise ConfigError("loss weights must be finite and nonnegative")


@dataclass
class LossBreakdown:
    lm: Tensor
    pred: Tensor
    sparse: Tensor
    mem: Tensor
    stop: Tensor
    total: Tensor

    def values(self) -> dict[str, float]:
        return {
            "lm": self.lm.item(), "pred": self.pred.item(),
            "sparse": self.sparse.item(), "mem": self.mem.item(),
            "stop": self.stop.item(), "total": self.total.item(),
        }


def _log_softmax(x: np.ndarray) -> tuple:
    """log_softmax(x), with exp(x - max) and its row sums."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=-1, keepdims=True)
    return shifted - np.log(s), e, s


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis of an array of logits; the row
    max is subtracted before the exp, so no exp overflows."""
    return _log_softmax(x)[0]


def lm_loss(logits: Tensor, targets) -> Tensor:
    """Mean next-token cross-entropy over [T, V] or [B, T, V] logits, as
    one tape node; for a batch, the mean of the per-sequence means.
    Alignment is the caller's job."""
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise NumericsError("target length mismatch")
    if targets.min() < 0 or targets.max() >= logits.shape[-1]:
        raise NumericsError("target index out of range")
    lp, e, s = _log_softmax(logits.data)
    key = (*np.indices(targets.shape, sparse=True), targets)
    picked = lp[key]
    def bw(g):
        g_lp = np.zeros_like(lp)
        np.add.at(g_lp, key, np.broadcast_to(-g, picked.shape) / picked.size)
        g_s = (-g_lp).sum(axis=-1, keepdims=True) / s
        _accum(logits, g_lp + g_s * e)
    return _op(-picked.mean(), (logits,), bw)


def binary_cross_entropy_logits(scores: Tensor, targets) -> Tensor:
    """Mean BCE of sigmoid scores against {0,1} targets, in logit form:
    mean(softplus(s) - s * y), as one tape node."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != scores.shape:
        raise NumericsError("stop target shape mismatch")
    s = scores.data
    def bw(g):
        g = np.broadcast_to(g, s.shape) / s.size
        _accum(scores, g * sigmoid(s))
        _accum(scores, -g * y)
    return _op((np.logaddexp(0.0, s) - s * y).mean(), (scores,), bw)


def _pred_term(aux: list[LayerAux], scale: float) -> Tensor:
    """scale * the sum of each layer's mean squared mismatch."""
    errors = [a.error_sq for a in aux]
    def bw(g):
        g = g * scale
        for e in errors:
            _accum(e, np.broadcast_to(g, e.shape) / e.size)
    return _op(sum((e.data.mean() for e in errors), 0.0) * scale,
               tuple(errors), bw)


def _sparse_term(aux: list[LayerAux], scale: float) -> Tensor:
    """scale * the batch mean of the layers' summed squared ratios."""
    ratios = [a.sparse_ratio_st for a in aux]
    sq = sum((r.data * r.data for r in ratios), 0.0)
    def bw(g):
        g = np.broadcast_to(g * scale, np.shape(sq)) / np.size(sq)
        for r in ratios:
            _accum(r, g * r.data)
            _accum(r, g * r.data)
    return _op(np.mean(sq) * scale, tuple(ratios), bw)


def _mem_term(aux: list[LayerAux], scale: float) -> Tensor:
    """scale * the sum over layers of (|fast|^2 + |slow|^2) / fast.size."""
    pairs = [(a.fast_final, a.slow_final) for a in aux]
    value = sum((((f.data * f.data).sum() + (s.data * s.data).sum())
                 * (1.0 / f.size) for f, s in pairs), 0.0)
    def bw(g):
        g = g * scale
        for f, s in pairs:
            g_l = g * (1.0 / f.size)
            for t in (f, f, s, s):
                _accum(t, g_l * t.data)
    return _op(value * scale, sum(pairs, ()), bw)


def aux_losses(aux: list[LayerAux], stop_scores: Tensor | None, eos_targets,
               cfg: ModelConfig) -> dict[str, Tensor]:
    """The four auxiliary terms, one tape node each, whose inputs are
    listed by layer; toggled-off mechanisms contribute exact 0. For a
    batch, each term is the batch mean of its per-sequence value."""
    zero = Tensor(0.0)
    scale = 1.0 / max(1, len(aux))
    pred = _pred_term(aux, scale) if cfg.predictive_coding else zero
    sparse, mem = _sparse_term(aux, scale), _mem_term(aux, scale)
    if cfg.stop_head:
        if stop_scores is None:
            raise NumericsError("stop head enabled but no stop scores provided")
        stop = binary_cross_entropy_logits(stop_scores, eos_targets)
    else:
        stop = zero
    return {"pred": pred, "sparse": sparse, "mem": mem, "stop": stop}


def total_loss(lm: Tensor, parts: dict[str, Tensor],
               weights: LossWeights) -> LossBreakdown:
    """Weighted sum, as one tape node; zero-weight terms are skipped so
    they contribute exactly nothing to the value or the gradient."""
    terms = [(parts[name], lam) for name, lam in
             zip(("pred", "sparse", "mem", "stop"), astuple(weights)) if lam]
    value = lm.data
    for t, lam in terms:
        value = value + t.data * lam
    def bw(g):
        _accum(lm, g)
        for t, lam in terms:
            _accum(t, g * lam)
    total = _op(value, (lm, *(t for t, _ in terms)), bw)
    return LossBreakdown(lm=lm, pred=parts["pred"], sparse=parts["sparse"],
                         mem=parts["mem"], stop=parts["stop"], total=total)


@dataclass
class SgdConfig:
    lr: float = 3e-4
    momentum: float = 0.9
    clip_norm: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError("lr must be finite and positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if not (math.isfinite(self.clip_norm) and self.clip_norm > 0.0):
            raise ConfigError("clip_norm must be finite and positive")


@dataclass
class SgdState:
    """Momentum-SGD state for one ParameterStore: `velocity` maps each
    parameter updated so far to its momentum.

    A step updates the parameters, gradients and momenta it is given as
    three flat arrays, in a few whole-array passes, and then rebinds each
    parameter's `.data` and momentum to its slice of the fresh results;
    the arrays they held before are left as they were."""

    velocity: dict[str, np.ndarray] = field(default_factory=dict)

    def step(self, params: ParameterStore, grads: dict[str, Tensor],
             cfg: SgdConfig) -> None:
        """One clipped momentum update of the parameters named in `grads`.
        Raises NumericsError naming the first parameter, in store order,
        that it would make non-finite, and then changes neither the
        parameters nor the velocity."""
        if not grads:
            return
        names = list(grads)
        data = [params[n].data for n in names]
        ends = itertools.accumulate(d.size for d in data)
        parts = [slice(e - d.size, e) for d, e in zip(data, ends)]
        g = np.concatenate([grads[n].data for n in names], axis=None)
        with np.errstate(over="ignore"):
            sq = g * g
        norm_sq = sum(float(np.add.reduce(sq[p])) for p in parts)
        if not math.isfinite(norm_sq) and np.isfinite(g).all():
            # Finite gradients whose squares overflow: the norm of g / max|g|.
            peak = float(np.abs(g).max())
            norm = peak * math.sqrt(float(np.square(g / peak).sum()))
        else:
            norm = math.sqrt(norm_sq)
        if not norm <= cfg.clip_norm:
            g *= cfg.clip_norm / norm
        v = np.concatenate([self.velocity[n] if n in self.velocity
                            else np.zeros(d.size) for n, d in zip(names, data)],
                           axis=None)
        v *= cfg.momentum
        v += g
        for n, p in zip(names, parts):
            if n not in self.velocity:  # a first momentum is g itself, -0.0 included
                v[p] = g[p]
        value = np.concatenate(data, axis=None)
        value -= cfg.lr * v
        if not np.isfinite(value).all():
            order = {n: k for k, n in enumerate(params.names())}
            for n, p in sorted(zip(names, parts), key=lambda x: order[x[0]]):
                check_finite(value[p], f"parameter {n!r} after the update")
        for n, d, p in zip(names, data, parts):
            params[n].data = value[p].reshape(d.shape)
            self.velocity[n] = v[p].reshape(d.shape)
