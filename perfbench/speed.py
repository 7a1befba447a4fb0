"""Machine-speed calibration.

The benchmark shares a small machine whose speed drifts by tens of percent
within minutes, as neighbours come and go. Raw wall times from runs a few
minutes apart then differ more than any useful regression bound. So every
timed region is paired with runs of a fixed calibration loop measured just
before and after it, and the benchmark reports the region's time divided by
the loop's slowdown against REFERENCE_S. The loop uses only numpy and
Python, never lpcsm, so a faster lpcsm cannot make it faster too.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# A fixed scale, not a measurement: a normalised time is the wall time the
# region would take on a machine where one calibration loop takes this long.
REFERENCE_S = 0.005


class _Node:
    __slots__ = ("data", "prev", "fn")

    def __init__(self, data, prev=(), fn=None):
        self.data = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise ArithmeticError("calibration produced a non-finite value")
        self.prev, self.fn = prev, fn


# About 600 KB of weights, as much as the README model's parameters, so the
# loop feels cache contention the way lpcsm does.
_WEIGHTS = [np.random.default_rng(i).standard_normal((32, 96)) / 6.0
            for i in range(24)]


def calibration_loop(reps: int = 120) -> float:
    """lpcsm's instruction mix in miniature: small numpy ops over a
    parameter-sized working set, one object and one closure per op, then a
    reverse sweep over the recorded nodes."""
    v = _Node(np.linspace(-1.0, 1.0, 32))
    tape = []
    for i in range(reps):
        w = _Node(_WEIGHTS[i % len(_WEIGHTS)])
        x = _Node(v.data @ w.data, (v, w), lambda g: g)
        h = _Node(np.tanh(x.data[:32]), (x,), lambda g: g)
        g = _Node(1.0 / (1.0 + np.exp(-x.data[32:64])), (x,), lambda g: g * 0.5)
        v = _Node(g.data * v.data + (1.0 - g.data) * h.data, (g, v, h),
                  lambda g: g)
        tape.extend((x, h, g, v))
    grad = np.ones(32)
    for node in reversed(tape):
        grad = node.fn(grad)
    return float(grad.sum())


def slowdown() -> float:
    """How many times slower than the reference the machine runs now,
    from the median of three calibration loops.

    The collector is paused during the loop: its allocations would
    otherwise set off a collection of the caller's heap, which can hold a
    whole autodiff tape, and charge it to the loop.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):  # the median drops a loop that was interrupted
            t0 = time.perf_counter()
            calibration_loop()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1] / REFERENCE_S
    finally:
        if enabled:
            gc.enable()
