"""Multi-stream residual router: lift, Sinkhorn-normalized transport
across streams, and learned pre/post mixing around the block update,
evaluated in its exact scalar-gain form."""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, NumericsError, _wrap, _op, _accum, check_finite


# Marginal-sum tolerance the transport matrix must reach, and the hard cap
# on extra normalization passes spent reaching it.
MARGINAL_TOL = 1e-7
MAX_EXTRA_PASSES = 10_000


def _marginal_residual(m: np.ndarray) -> float:
    return max(
        float(np.max(np.abs(m.sum(axis=0) - 1.0))),
        float(np.max(np.abs(m.sum(axis=1) - 1.0))),
    )


def sinkhorn_normalize(logits: Tensor, iters: int) -> Tensor:
    """Alternate row/column normalization of exp(logits), as one tape node.

    Runs `iters` full passes, then keeps alternating until both marginal
    sums are within MARGINAL_TOL of 1; badly conditioned logits need far
    more passes than well-mixed ones, and the doubly-stochastic invariant
    is the contract that matters downstream. The backward is the unrolled
    adjoint of every pass run, extra passes included. An exp(logits) that
    overflows, or marginals that are not finite after the `iters` passes
    (a line of exp(logits) that underflows to 0), raise NumericsError at
    once, without a RuntimeWarning.

    A full pass that returns m bitwise unchanged is a fixed point: every
    later pass would compute the same sums and the same m. So the loop
    stops there, and the backward runs that pass's adjoint once for each
    forced pass left, until it too returns its gradient bitwise
    unchanged. The output and the gradient are those of running every
    pass. Zero logits, mHC's init, reach the fixed point on the second
    pass.
    """
    logits = _wrap(logits)
    if iters < 1:
        raise NumericsError("sinkhorn iters must be >= 1")
    if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
        raise NumericsError("sinkhorn expects square logits")
    with np.errstate(over="ignore"):
        m0 = np.exp(logits.data)
    check_finite(m0, "sinkhorn exp(logits)")
    m, passes = m0, []  # passes: (axis, divisor, output) in forward order
    repeats = 0  # forced passes left at the fixed point
    # A line of exp(logits) that underflows to 0 divides 0 by 0 in its
    # pass; the marginal check raises on the NaNs that leaves.
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(iters + MAX_EXTRA_PASSES):
            before = m
            for axis in (1, 0):
                s = m.sum(axis=axis, keepdims=True)
                m = m / s
                passes.append((axis, s, m))
            fixed = m.tobytes() == before.tobytes()
            if fixed:  # no later pass moves m
                repeats = max(iters - i - 1, 0)
            if fixed or i + 1 >= iters:
                residual = _marginal_residual(m)
                if residual <= MARGINAL_TOL:
                    break
                check_finite(residual, "sinkhorn marginals")
                if fixed:
                    break
    if residual > MARGINAL_TOL:
        raise NumericsError(
            "sinkhorn failed to reach doubly-stochastic marginals")
    def adjoint(g, steps):
        for axis, s, y in reversed(steps):
            g = (g - (g * y).sum(axis=axis, keepdims=True)) / s
        return g

    def bw(g):
        for _ in range(repeats):
            before, g = g, adjoint(g, passes[-2:])
            if g.tobytes() == before.tobytes():
                break
        _accum(logits, adjoint(g, passes) * m0)
    return _op(m, (logits,), bw)


def route_gain(pre: Tensor, post: Tensor, logits: Tensor, iters: int) -> Tensor:
    """The scalar gain postᵀ M pre of the routed residual over S streams.

    Stream i carries pre_i * h_in, the doubly-stochastic transport
    M = sinkhorn(logits) mixes the stream axis, and the post-mix
    coefficients collapse it back. Every stream is a multiple of h_in, so
    the collapsed residual is exactly this gain times h_in. It depends on
    the parameters alone. One tape node over M, pre and post; [S] and
    [S, S] shapes that do not match raise NumericsError.
    """
    m = sinkhorn_normalize(logits, iters)
    if pre.shape != (m.shape[0],) or post.shape != pre.shape:
        raise NumericsError(f"mhc stream mismatch: pre {pre.shape}, "
                            f"post {post.shape}, transport {m.shape}")
    mixed = m.data @ pre.data

    def bw(g):
        g_mixed = g * post.data
        _accum(m, np.outer(g_mixed, pre.data))
        _accum(pre, m.data.T @ g_mixed)
        _accum(post, mixed * g)
    return _op(mixed @ post.data, (m, pre, post), bw)


def mhc_route(h_in: Tensor, block_update: Tensor, gain: Tensor) -> Tensor:
    """Route the residual through the streams (see `route_gain`) and inject
    the block update additively: h_in * gain + block_update, as one tape
    node. Accepts a vector, a [T, d] span or a [B, T, d] batch."""
    h_in, block_update, gain = _wrap(h_in), _wrap(block_update), _wrap(gain)
    def bw(g):
        _accum(block_update, g)
        _accum(h_in, g * gain.data)
        _accum(gain, g * h_in.data)
    # The tape visits inputs last first: the update, the gain, then h_in,
    # as it visits the sum's and the product's.
    return _op(h_in.data * gain.data + block_update.data,
               (h_in, gain, block_update), bw)
