"""Summary statistics for timing samples."""

from __future__ import annotations

import math
import statistics

# The tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10
TAIL_MAX_PERCENTILE = 90


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with at least ten of `n`
    samples beyond it; never below the median (50)."""
    if n < 1:
        raise ValueError("no samples")
    p = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    return max(50, min(TAIL_MAX_PERCENTILE, p))


def nearest_rank(samples, p: float) -> float:
    """The nearest-rank p-th percentile: the ceil(p/100 * n)-th smallest."""
    ordered = sorted(samples)
    k = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[k - 1]


def tail(samples) -> tuple[int, float]:
    """(percentile, value) of the tail statistic of `samples`; with 20
    samples or fewer that is the median itself."""
    p = tail_percentile(len(samples))
    if p == 50:
        return p, statistics.median(samples)
    return p, nearest_rank(samples, p)
