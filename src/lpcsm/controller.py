"""Learned sparse event controller: normalized error scores, a learned
scale with temperature, and a straight-through hard threshold at a
learnable bounded density.

`causal_mask_bits`, a span's mask, gives every position the top-ratio
bit of the scores of its own prefix, for all positions of a span at
once, at the ratio it clamps. The prefix a sequence carries from span to
span is this module's alone: `empty_prefix` creates it and
`causal_mask_bits` reads and advances it."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, _wrap, _op, _accum, sigmoid, straight_through

SCORE_STD_EPS = 1e-6


@dataclass
class ControllerParams:
    scale: Tensor
    temperature: float
    ratio_raw: Tensor
    ratio_min: float
    ratio_max: float


def ratio_raw_init(target: float, ratio_min: float, ratio_max: float) -> float:
    """Inverse of the sigmoid clamp, so the initial ratio equals `target`."""
    u = (target - ratio_min) / (ratio_max - ratio_min)
    return math.log(u / (1.0 - u))


def clamp_ratio(p: ControllerParams) -> Tensor:
    """Sigmoid-bounded ratio in (ratio_min, ratio_max), as one tape node
    with the floats of raw.sigmoid() * (ratio_max - ratio_min) + ratio_min
    and of its backward."""
    raw, width = p.ratio_raw, p.ratio_max - p.ratio_min
    y = sigmoid(raw.data)
    return _op(y * width + p.ratio_min, (raw,),
               lambda g: _accum(raw, g * width * y * (1.0 - y)))


def welford_step(total: float, mean: float, m2: float, x: float,
                 n: int) -> tuple[float, float, float]:
    """Welford's update of a sequence's running norm moments by its n-th
    norm x: the sum, the mean total / n and m2, the sum of squared
    deviations from the mean, so the population variance is m2 / n.
    From (0.0, 0.0, 0.0) the first norm gives (x, x, 0.0) exactly."""
    total = total + x
    new = total / n
    m2 = m2 + (x - mean) * (x - new)
    if m2 < 0.0:  # a guard: rounding has not been seen to go below 0
        m2 = 0.0
    return total, new, m2


def empty_prefix(batch: tuple = ()) -> tuple:
    """The carried prefix of no norms, for one sequence or, with `batch` =
    (B,), for B sequences: (values, index, moments), lists of its norms in
    ascending order, equal values in position order, and of their
    positions, and its welford_step state [total, mean, m2]; for a batch,
    a triple of B such lists. causal_mask_bits advances it in place."""
    return (np.zeros(batch + (0,)).tolist(), np.zeros(batch + (0,)).tolist(),
            np.zeros(batch + (3,)).tolist())


def causal_mask_bits(error_norms: Tensor, p: ControllerParams,
                     prefix: tuple | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """Causal event bits of a span that continues a carried prefix:
    (hard bits, soft bits, clamped ratio).

    Position t gets the bit that hard_mask(event_scores(e[:t+1]), ratio)
    gives it, hard and soft, with the ratio clamped once per span; so
    teacher forcing and incremental decode agree. Those two functions,
    the mask of one whole sequence, are the reference this one is tested
    against, in tests/reference_controller.py. `error_norms` is a [T]
    span, or a [B, T] batch, each row its own sequence. `prefix`
    (empty_prefix) holds the norms before the span, sorted, and their
    moments; each position of the span is advanced into it in place, so a
    one-token span costs one position's work. None starts a fresh prefix.

    The score map is weakly monotone in the norm (reversed when scale < 0),
    so hard_mask's threshold is the score of an order statistic of the
    sorted prefix, and only the scores it compares are computed: as
    Python floats, from event_scores' running mean and variance, in
    event_scores' op order, so each is the same float. The soft bits are
    one tape node for any span length and batch, with an O(T) backward
    that reads each threshold's norm as the forward recorded it; the hard
    bits route their gradient to it straight through.
    """
    e = _wrap(error_norms)
    ratio_t = clamp_ratio(p)
    ratio = float(ratio_t.data)
    if prefix is None:
        prefix = empty_prefix(e.shape[:-1])
    all_values, all_index, all_moments = (
        prefix if e.ndim > 1 else ([prefix[0]], [prefix[1]], [prefix[2]]))
    batch, span, start = len(all_values), e.shape[-1], len(all_values[0])
    rows = e.data.reshape(batch, span)  # one row per sequence
    scale = float(p.scale.data)
    inv_temp = 1.0 / p.temperature
    rising = scale >= 0.0           # scores weakly follow the norms' order

    # Per position, sequence by sequence: the hard bit, s_t - s_theta
    # (exact), and the backward's record: dz/de (1/den, or 1/eps on a flat
    # row), the prefix mean, sqrt(var) (0 on a flat row), and the
    # threshold's position and norm. A score is z * scale * inv_temp, with
    # z = (v - m) / den, or (v - m) * (1/eps) on a flat row.
    bits, diffs, records = [], [], []
    for b in range(batch):
        values, index, moments = all_values[b], all_index[b], all_moments[b]
        total, m, m2 = moments
        for t, x in enumerate(rows[b].tolist(), start):
            n = t + 1
            pos = bisect_right(values, x)
            values.insert(pos, x)
            index.insert(pos, t)

            total, m, m2 = welford_step(total, m, m2, x, n)
            var = m2 / n
            flat = var == 0.0
            if flat:
                sd, slope = 0.0, 1.0 / SCORE_STD_EPS
            else:
                sd = math.sqrt(var)
                den = sd + SCORE_STD_EPS
                slope = 1.0 / den

            # hard_mask's threshold is the k-th score of its stable
            # descending order: the (k - #greater)-th, in position order,
            # of its run of equal scores, which is contiguous in the
            # sorted prefix.
            k = int(math.ceil(ratio * n))
            v = values[n - k if rising else k - 1]
            s_theta = (((v - m) * slope if flat else (v - m) / den)
                       * scale * inv_temp)
            lo, hi = bisect_left(values, v), bisect_right(values, v)
            while lo > 0:
                u = values[lo - 1]
                if (((u - m) * slope if flat else (u - m) / den)
                        * scale * inv_temp != s_theta):
                    break
                lo = bisect_left(values, u, 0, lo)
            while hi < n:
                u = values[hi]
                if (((u - m) * slope if flat else (u - m) / den)
                        * scale * inv_temp != s_theta):
                    break
                hi = bisect_right(values, u, hi)
            rank = k - (n - hi if rising else lo) - 1
            if values[lo] == values[hi - 1]:
                j, v_j = index[lo + rank], v
            else:  # rounding merged distinct norms into one score
                j, v_j = sorted(zip(index[lo:hi], values[lo:hi]))[rank]

            s_own = (((x - m) * slope if flat else (x - m) / den)
                     * scale * inv_temp)
            bits.append(s_own > s_theta or j == t)
            diffs.append(s_own - s_theta)
            records.append((slope, m, sd, j, v_j))
        moments[:] = total, m, m2
    hard = np.array(bits, dtype=np.float64).reshape(e.shape)
    soft_vals = sigmoid(np.array(diffs).reshape(e.shape))
    def bw(g):
        slope, mu, sd, theta, norm_theta = np.moveaxis(
            np.array(records).reshape(batch, span, 5), -1, 0)
        theta = theta.astype(np.int64) - start
        y = soft_vals.reshape(batch, span)
        g = g.reshape(batch, span)
        gs = g * y * (1.0 - y) * inv_temp  # d/d(s_t - s_theta)
        dz = (rows - norm_theta) * slope  # z_t - z_theta
        _accum(p.scale, np.sum(gs * dz))
        w = gs * scale * slope          # d/de_t, and minus d/de_theta
        full = 0.0 + w  # a copy, with no -0.0
        # A threshold before the span is a norm of the past: a constant.
        inside = theta >= 0
        np.subtract.at(full, (np.nonzero(inside)[0], theta[inside]),
                       w[inside])
        # The std term: c_t * (e_i - mu_t) for every i <= t of a row
        # with var > 0, summed over t with two reverse cumsums; both
        # sides are taken about the last mean to keep the difference.
        c = np.divide(-w * dz, (np.arange(start, start + span) + 1.0) * sd,
                      out=np.zeros((batch, span)), where=sd > 0.0)
        last_mu = mu[:, -1:]
        tail = np.cumsum(c[:, ::-1], axis=1)[:, ::-1]
        tail_mu = np.cumsum((c * (mu - last_mu))[:, ::-1], axis=1)[:, ::-1]
        _accum(e, (full + (rows - last_mu) * tail - tail_mu).reshape(e.shape))
    soft = _op(soft_vals, (e, p.scale), bw)
    return straight_through(hard, soft), soft, ratio_t
