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
    """Sigmoid-bounded ratio in (ratio_min, ratio_max), as one tape node:
    sigmoid(raw) * (ratio_max - ratio_min) + ratio_min, with the floats of
    that chain of ops, forward and backward."""
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


def _position_records(xs: list, values: list, index: list, moments: list,
                      start: int, ratio: float, scale: float,
                      inv_temp: float) -> list:
    """The per-position path: the norms xs of one sequence's span, from
    position `start` on, each advanced in turn into the sequence's sorted
    prefix (values, index) and its moments, all in place, with Python
    floats. Returns one record per position: (hard bit, s_t - s_theta,
    dz/de, mean, sqrt(var), the threshold's position, its norm).

    A score is z * scale * inv_temp, with z = (v - m) / den, den =
    sqrt(var) + eps, or z = (v - m) * (1/eps) on a flat row (var == 0).
    It runs where the array pass would not give these floats: a tie at
    the threshold, a clamped m2, and a span of one position."""
    rising = scale >= 0.0           # scores weakly follow the norms' order
    total, m, m2 = moments
    records = []
    for t, x in enumerate(xs, start):
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
        records.append((s_own > s_theta or j == t, s_own - s_theta, slope,
                        m, sd, j, v_j))
    moments[:] = total, m, m2
    return records


def _array_pass(rows: np.ndarray, prefix: tuple, ratio: float, scale: float,
                inv_temp: float, table: np.ndarray) -> list:
    """The records of a [B, T] span, as `_position_records` gives them,
    written into `table` ([7, B, T], one plane per record field) and the
    prefix advanced in place; returns the rows it leaves to
    `_position_records`, with their prefix as it was.

    The moments are running sums: np.add.accumulate of the norms from the
    carried total gives welford_step's totals, total / n its means, and
    the accumulated increments (x - previous mean) * (x - mean) its m2s,
    float for float, unless a partial m2 falls below 0, where
    welford_step clamps it: such a row is left over. The Python loop only
    inserts each norm into its sorted prefix and reads the positions in
    slot q, the threshold's (n - k, or k - 1 when scale < 0), and in its
    two neighbours. A row where a neighbour scores the threshold's score,
    an exact tie or distinct norms merged by rounding, is left over too:
    the threshold is then the rank-th of a run, which the per-position
    path resolves. Elsewhere the run is slot q alone."""
    values, index, moments = prefix
    batch, span = rows.shape
    start = len(values[0])
    n = np.arange(start + 1.0, start + span + 1.0)  # each prefix's length
    carried = np.array(moments)
    total = rows.copy()
    total[:, 0] += carried[:, 0]
    np.add.accumulate(total, axis=1, out=total)
    mean = total / n
    prev = np.empty_like(mean)
    prev[:, 0] = carried[:, 1]
    prev[:, 1:] = mean[:, :-1]
    m2 = (rows - prev) * (rows - mean)
    m2[:, 0] += carried[:, 2]
    np.add.accumulate(m2, axis=1, out=m2)
    var = m2 / n
    clamped = (var < 0.0).any(axis=1)
    var[clamped] = 0.0  # those rows are left over
    flat = var == 0.0
    sd = np.sqrt(var)
    den = sd + SCORE_STD_EPS
    slope = 1.0 / den  # 1 / eps on a flat row, as there

    k = np.ceil(ratio * n)
    slot = (n - k if scale >= 0.0 else k - 1).astype(np.int64)
    positions = np.arange(start, start + span)
    steps = list(zip(positions.tolist(), slot.tolist(),
                     (slot - positions).tolist()))
    reads = []
    for b in range(batch):
        vals, idx = values[b], index[b]
        for (t, q, q_next), x in zip(steps, rows[b].tolist()):
            pos = bisect_right(vals, x)
            vals.insert(pos, x)
            idx.insert(pos, t)
            # idx[q - t] is idx[q + 1] unless q is the last slot.
            reads += idx[q], idx[q - 1], idx[q_next]
    read = np.fromiter(reads, np.int64, 3 * batch * span).reshape(batch, -1)
    norms = rows  # each position's norm, by position
    if start:
        norms = np.empty((batch, start + span))
        norms[:, start:] = rows
        for b in range(batch):
            norms[b, index[b]] = values[b]
    v, below, above = np.take_along_axis(norms, read, axis=1).reshape(
        batch, span, 3).transpose(2, 0, 1)
    theta = read[:, ::3]

    c = np.stack((rows, v, below, above)) - mean
    own, s_theta, s_below, s_above = (
        np.where(flat, c * slope, c / den) * scale * inv_temp)
    tied = (((slot > 0) & (s_below == s_theta))
            | ((slot < n - 1) & (s_above == s_theta)))
    table[0] = (own > s_theta) | (theta == positions)
    table[1] = own - s_theta
    table[2], table[3], table[4], table[5], table[6] = (slope, mean, sd,
                                                        theta, v)
    left = np.flatnonzero(clamped | tied.any(axis=1)).tolist()
    for b in range(batch):
        if b in left:  # take the span's norms back out of the prefix
            kept = [(u, i) for u, i in zip(values[b], index[b]) if i < start]
            values[b][:] = [u for u, _ in kept]
            index[b][:] = [i for _, i in kept]
        else:
            moments[b][:] = (float(total[b, -1]), float(mean[b, -1]),
                             float(m2[b, -1]))
    return left


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
    sorted prefix, and only the scores it compares are computed, from
    event_scores' running mean and variance in event_scores' op order, so
    each is the same float. A span of two or more positions takes the
    array pass (`_array_pass`): its moments and scores are [B, T] arrays,
    and per position only the sorted insert and the threshold's read stay
    in Python. A one-position span, which is every decode token, and a
    row the array pass leaves over (a tie at the threshold, or a clamped
    m2) take the per-position path (`_position_records`), which gives the
    same records. The soft bits are one tape node for any span length and
    batch, with an O(T) backward that reads each threshold's norm as the
    forward recorded it; the hard bits route their gradient to it
    straight through.
    """
    e = _wrap(error_norms)
    ratio_t = clamp_ratio(p)
    ratio = float(ratio_t.data)
    if prefix is None:
        prefix = empty_prefix(e.shape[:-1])
    values, index, moments = (
        prefix if e.ndim > 1 else ([prefix[0]], [prefix[1]], [prefix[2]]))
    batch, span, start = len(values), e.shape[-1], len(values[0])
    rows = e.data.reshape(batch, span)  # one row per sequence
    scale = float(p.scale.data)
    inv_temp = 1.0 / p.temperature

    # Per position: the hard bit, s_t - s_theta (exact), and the
    # backward's record: dz/de (1/den, or 1/eps on a flat row), the
    # prefix mean, sqrt(var) (0 on a flat row), and the threshold's
    # position and norm.
    if span > 1:
        table = np.empty((7, batch, span))
        left = _array_pass(rows, (values, index, moments), ratio, scale,
                           inv_temp, table)
    else:  # one position, as each decode token, or none
        left = range(batch)
    records = [_position_records(rows[b].tolist(), values[b], index[b],
                                 moments[b], start, ratio, scale, inv_temp)
               for b in left]
    if span > 1:
        for b, row in zip(left, records):
            table[:, b] = np.array(row, dtype=np.float64).T
    else:
        table = np.array([r for row in records for r in row],
                         dtype=np.float64).T.reshape(7, batch, span)
    hard = table[0].reshape(e.shape)
    soft_vals = sigmoid(table[1].reshape(e.shape))
    def bw(g):
        slope, mu, sd, norm_theta = table[2], table[3], table[4], table[6]
        theta = table[5].astype(np.int64) - start
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
