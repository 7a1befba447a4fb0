"""The training objective as chains of Tensor ops, kept as the reference
that the one-node losses in `lpcsm.objective` are tested against.

Each function composes Tensor arithmetic and the ops of `reference_ops`
as the objective did before each loss term became one tape node. The
one-node forms must give the same value and the same bytes in every
gradient."""

from __future__ import annotations

import numpy as np

from lpcsm.numerics import Tensor, NumericsError
from lpcsm.objective import LossBreakdown

from reference_ops import exp, log, mean, neg, softplus, sub


def log_softmax(logits: Tensor) -> Tensor:
    # Row-max subtraction is detached; its gradient contribution cancels in
    # exact arithmetic.
    shifted = sub(logits, Tensor(logits.data.max(axis=-1, keepdims=True)))
    return sub(shifted, log(exp(shifted).sum(axis=-1, keepdims=True)))


def lm_loss(logits: Tensor, targets) -> Tensor:
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise NumericsError("target length mismatch")
    if targets.min() < 0 or targets.max() >= logits.shape[-1]:
        raise NumericsError("target index out of range")
    rows = np.indices(targets.shape, sparse=True)
    return neg(mean(log_softmax(logits)[(*rows, targets)]))


def binary_cross_entropy_logits(scores: Tensor, targets) -> Tensor:
    y = Tensor(np.asarray(targets, dtype=np.float64))
    if y.shape != scores.shape:
        raise NumericsError("stop target shape mismatch")
    return mean(sub(softplus(scores), scores * y))


def aux_losses(aux, stop_scores, eos_targets, cfg) -> dict:
    zero = Tensor(0.0)
    n_layers = max(1, len(aux))

    if cfg.predictive_coding:
        pred = sum((mean(a.error_sq) for a in aux), zero) * (1.0 / n_layers)
    else:
        pred = zero
    sparse = mean(sum((a.sparse_ratio_st * a.sparse_ratio_st for a in aux),
                      zero)) * (1.0 / n_layers)
    mem = sum(
        (((a.fast_final * a.fast_final).sum()
          + (a.slow_final * a.slow_final).sum()) * (1.0 / a.fast_final.size)
         for a in aux),
        zero,
    ) * (1.0 / n_layers)

    if cfg.stop_head:
        if stop_scores is None:
            raise NumericsError("stop head enabled but no stop scores provided")
        stop = binary_cross_entropy_logits(stop_scores, eos_targets)
    else:
        stop = zero

    return {"pred": pred, "sparse": sparse, "mem": mem, "stop": stop}


def total_loss(lm: Tensor, parts: dict, weights):
    total = lm
    for name, lam in (("pred", weights.lambda_pred),
                      ("sparse", weights.lambda_sparse),
                      ("mem", weights.lambda_mem),
                      ("stop", weights.lambda_stop)):
        if lam != 0.0:
            total = total + parts[name] * lam
    return LossBreakdown(lm=lm, pred=parts["pred"], sparse=parts["sparse"],
                         mem=parts["mem"], stop=parts["stop"], total=total)
