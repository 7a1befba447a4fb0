"""Learned sparse event controller: normalized error scores, a learned
bias-scale transform with temperature, and a straight-through hard
threshold at a learnable bounded density.

`event_scores` and `hard_mask` define the mask of one sequence;
`prefix_event_mask` gives every position the bit those two assign it
within its own prefix, for all positions of a span at once."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, NumericsError, _wrap, straight_through, take_rows

SCORE_STD_EPS = 1e-6


@dataclass
class ControllerParams:
    bias: Tensor
    scale: Tensor
    temperature: float
    ratio_raw: Tensor
    ratio_min: float
    ratio_max: float
    adaptive: bool

    def __post_init__(self):
        if not (0.0 < self.ratio_min < self.ratio_max <= 1.0):
            raise NumericsError("controller ratio bounds must satisfy 0 < min < max <= 1")
        if self.temperature <= 0.0:
            raise NumericsError("controller temperature must be positive")


@dataclass
class EventMask:
    hard: Tensor
    soft: Tensor
    effective_ratio: float


def ratio_raw_init(target: float, ratio_min: float, ratio_max: float) -> float:
    """Inverse of the sigmoid clamp, so the initial ratio equals `target`."""
    u = (target - ratio_min) / (ratio_max - ratio_min)
    return math.log(u / (1.0 - u))


def clamp_ratio(p: ControllerParams) -> Tensor:
    """Sigmoid-bounded ratio in (ratio_min, ratio_max)."""
    return p.ratio_raw.sigmoid() * (p.ratio_max - p.ratio_min) + p.ratio_min


def event_scores(error_norms: Tensor, p: ControllerParams) -> Tensor:
    """Normalize errors (population std), apply bias-scale and temperature."""
    e = _wrap(error_norms)
    if e.ndim != 1 or e.shape[0] < 1:
        raise NumericsError("event_scores expects a nonempty [T] vector")
    mu = e.mean()
    centered = e - mu
    var = (centered * centered).mean()
    if float(var.data) == 0.0:
        # Degenerate prefix (constant errors): sqrt has no gradient at 0,
        # and the eps-floored denominator is the correct limit anyway.
        z = centered * (1.0 / SCORE_STD_EPS)
    else:
        z = centered / (var.sqrt() + SCORE_STD_EPS)
    return (z * p.scale + p.bias) * (1.0 / p.temperature)


def hard_mask(scores: Tensor, ratio: float) -> EventMask:
    """Top-ceil(ratio*T) binary mask with index tie-break; straight-through.

    The threshold is the smallest selected score; ties resolve toward the
    lower index so the cardinality is exact. The hard tensor's backward
    pass is the sigmoid soft path around the (detached) threshold.
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
    soft = (scores - theta).sigmoid()
    return EventMask(
        hard=straight_through(hard_vals, soft),
        soft=soft,
        effective_ratio=k / t_len,
    )


def prefix_event_mask(error_norms: Tensor, start: int, p: ControllerParams,
                      ratio: float) -> tuple[Tensor, Tensor]:
    """Causal event bits of positions start..N-1 of `error_norms` [N].

    Position t gets the bit that hard_mask(event_scores(e[:t+1]), ratio)
    gives it, hard and soft. Row r of one [T, N] score matrix holds the
    scores of prefix t = start + r in its first t+1 columns. Its prefix
    means and variances are summed one prefix at a time, so every score
    is the same float that event_scores computes; the backward pass runs
    through their lower-triangular masked forms. The tape gains O(1)
    nodes for any span length.
    """
    e = _wrap(error_norms)
    n = e.shape[0]
    t = np.arange(start, n)                    # last position of each prefix
    count = t + 1.0
    rows = np.arange(t.size)
    inside = np.arange(n)[None, :] <= t[:, None]

    share = Tensor(inside / count[:, None])    # masked-mean weights
    sums = np.array([np.add.reduce(e.data[:i + 1]) for i in t])
    mu = straight_through(sums / count, share @ e)
    centered = e.reshape((1, n)) - mu.reshape((t.size, 1))
    sq = centered * centered
    var_exact = np.array([np.add.reduce(sq.data[r, :i + 1])
                          for r, i in zip(rows, t)]) / count
    var = straight_through(var_exact, (sq * share).sum(axis=1))
    # A constant prefix (var == 0) takes event_scores' eps-floored branch,
    # which sends no gradient into var; its sqrt is taken at 1, not 0.
    flat = var_exact == 0.0
    den = (var + Tensor(flat)).sqrt() + SCORE_STD_EPS
    z = centered / den.reshape((t.size, 1)) * Tensor(~flat[:, None]) \
        + centered * Tensor(flat[:, None] * (1.0 / SCORE_STD_EPS))
    scores = (z * p.scale + p.bias) * (1.0 / p.temperature)

    # hard_mask keeps order[:k] of a stable descending sort; its threshold
    # is the k-th kept score, the (k - #greater)-th tie in index order.
    s = scores.data
    k = np.ceil(ratio * count).astype(np.int64)
    theta_val = -np.sort(np.where(inside, -s, np.inf), axis=1)[rows, k - 1]
    greater = ((s > theta_val[:, None]) & inside).sum(axis=1)
    ties = (s == theta_val[:, None]) & inside
    theta = np.argmax(np.cumsum(ties, axis=1) >= (k - greater)[:, None], axis=1)
    own = s[rows, t]
    hard = ((own > theta_val) | (theta == t)).astype(np.float64)

    pair = take_rows(scores.reshape((t.size * n,)),
                     np.stack([rows * n + t, rows * n + theta]))
    soft = (pair[0] - pair[1]).sigmoid()
    return straight_through(hard, soft), soft
