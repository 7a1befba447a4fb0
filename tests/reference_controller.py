"""The per-sequence definition of the event controller's mask, kept as the
reference that `lpcsm.controller.causal_mask_bits` is tested against.

`event_scores` and `hard_mask` give the mask of one whole sequence; the
controller gives every position the bit these two assign it within its
own prefix, `hard_mask(event_scores(e[:t+1]), ratio)`, and must match
them bit for bit, forward and backward."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lpcsm.controller import SCORE_STD_EPS, ControllerParams
from lpcsm.numerics import (Tensor, NumericsError, _wrap, sigmoid,
                            straight_through)

import reference_ops as ops


@dataclass
class EventMask:
    hard: Tensor
    soft: Tensor
    effective_ratio: float


def event_scores(error_norms: Tensor, p: ControllerParams) -> Tensor:
    """Normalize errors (population std), apply scale and temperature.

    The mean and variance are welford_step's, in Tensor ops: each float
    is the same, and the gradient is the tape's own."""
    e = _wrap(error_norms)
    if e.ndim != 1 or e.shape[0] < 1:
        raise NumericsError("event_scores expects a nonempty [T] vector")
    total = mu = m2 = Tensor(0.0)
    for i in range(e.shape[0]):
        x = e[i]
        total = total + x
        new = ops.div(total, i + 1)
        m2 = m2 + ops.sub(x, mu) * ops.sub(x, new)
        mu = new
        if float(m2.data) < 0.0:
            m2 = Tensor(0.0)
    centered = ops.sub(e, mu)
    var = ops.div(m2, e.shape[0])
    if float(var.data) == 0.0:
        # Degenerate prefix (constant errors): sqrt has no gradient at 0,
        # and the eps-floored denominator is the correct limit anyway.
        z = centered * (1.0 / SCORE_STD_EPS)
    else:
        z = ops.div(centered, var.sqrt() + SCORE_STD_EPS)
    return z * p.scale * (1.0 / p.temperature)


def hard_mask(scores: Tensor, ratio: float) -> EventMask:
    """Top-ceil(ratio*T) binary mask with index tie-break; straight-through.

    The threshold is the smallest selected score; ties resolve toward the
    lower index so the cardinality is exact. The hard tensor's backward
    pass is the sigmoid soft path around the threshold, which stays on
    the tape, so the gradient reaches the threshold's score too.
    """
    scores = _wrap(scores)
    t_len = scores.shape[0]
    if not (0.0 < ratio <= 1.0):
        raise NumericsError("mask ratio must lie in (0, 1]")
    k = int(math.ceil(ratio * t_len))
    order = np.argsort(-scores.data, kind="stable")
    selected = order[:k]
    hard_vals = np.zeros(t_len)
    hard_vals[selected] = 1.0
    # The threshold is the smallest selected score, kept differentiable so
    # the soft path is a locally exact function of the scores.
    theta = scores[int(order[k - 1])]
    soft = ops.sigmoid(ops.sub(scores, theta))
    return EventMask(
        hard=straight_through(hard_vals, soft),
        soft=soft,
        effective_ratio=k / t_len,
    )


def prefix_masks(errs, p: ControllerParams, ratio: float) -> tuple:
    """The hard and soft bit that hard_mask(event_scores(e[:t+1]), ratio)
    gives position t, for every t of a [T] row: the same floats as those
    two functions, without their tape, so that rows of thousands of norms
    can be checked. event_scores' moments after each prefix are its
    running ones, so one pass gives them all; each prefix's scores are
    then its centered norms over sqrt(var) + eps (times 1/eps where
    var == 0), times scale and 1/temperature, and hard_mask's stable
    top-k picks the bits."""
    errs = np.asarray(errs, dtype=np.float64)
    scale, inv_temp = float(p.scale.data), 1.0 / p.temperature
    hard, soft = np.zeros(errs.size), np.zeros(errs.size)
    total = mu = m2 = 0.0
    for t, x in enumerate(errs.tolist()):
        total = total + x
        new = total / (t + 1)
        m2 = m2 + (x - mu) * (x - new)
        mu = new
        if m2 < 0.0:
            m2 = 0.0
        centered = errs[:t + 1] - mu
        var = m2 / (t + 1)
        z = (centered * (1.0 / SCORE_STD_EPS) if var == 0.0
             else centered / (np.sqrt(var) + SCORE_STD_EPS))
        scores = z * scale * inv_temp
        k = int(math.ceil(ratio * (t + 1)))
        order = np.argsort(-scores, kind="stable")
        hard[t] = t in order[:k]
        soft[t] = sigmoid(scores[t] - scores[order[k - 1]])
    return hard, soft
