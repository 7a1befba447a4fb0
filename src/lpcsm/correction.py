"""Predictive correction: estimate the hidden state from the attention and
memory reads, iteratively refine against the explicit mismatch, measure
the mismatch left and gate the estimate by the event bits. Each call is
one tape node."""

from __future__ import annotations

import numpy as np

from .numerics import (Tensor, ParameterStore, NumericsError, _accum, _op,
                       _unbroadcast, affine, affine_vjp)


def _mlp(x: np.ndarray, params: ParameterStore, prefix: str) -> tuple:
    """The two-layer tanh MLP on the rows x: its output, its backward
    `vjp(g) -> dx`, which accumulates the weights' gradients, and the
    weights."""
    weights = w1, b1, w2, b2 = (params[prefix + "w1"], params[prefix + "b1"],
                                params[prefix + "w2"], params[prefix + "b2"])
    h = affine(x, w1.data, b1.data, "tanh")
    y = affine(h, w2.data, b2.data)
    def vjp(g):
        return affine_vjp(affine_vjp(g, h, w2, b2, y), x, w1, b1, h, "tanh")
    return y, vjp, weights


def predict_init(a: Tensor, r: Tensor, params: ParameterStore,
                 prefix: str = "pred.") -> Tensor:
    """Initial estimate from the concatenated attention and memory reads."""
    if a.shape != r.shape:
        raise NumericsError("predict_init width mismatch")
    y, vjp, weights = _mlp(np.concatenate([a.data, r.data], axis=-1),
                           params, prefix)
    def bw(g):
        g_a, g_r = np.split(vjp(g), 2, axis=-1)
        _accum(a, g_a)
        _accum(r, g_r)
    return _op(y, (a, r) + weights, bw)


def refine_step(a: Tensor, r: Tensor, h: Tensor, estimate: Tensor,
                params: ParameterStore, prefix: str = "refine.") -> Tensor:
    """One additive refinement driven by the current mismatch h - estimate.
    The backward takes the sum's share into the estimate, then the MLP's
    into a, r and the mismatch, whose two operands come last."""
    err = h.data - estimate.data
    y, vjp, weights = _mlp(np.concatenate([a.data, r.data, err], axis=-1),
                           params, prefix)
    def bw(g):
        _accum(estimate, g)
        g_a, g_r, g_err = np.split(vjp(g), 3, axis=-1)
        _accum(a, g_a)
        _accum(r, g_r)
        _accum(h, g_err)
        _accum(estimate, -g_err)
    # The tape visits inputs last first. Estimate, h, r, then a is the
    # order the reference op chain visits them in, so every other node
    # keeps its place on the tape, and every gradient sum its order.
    return _op(estimate.data + y, (a, r, h, estimate) + weights, bw)


def mismatch_sq(h: Tensor, estimate: Tensor) -> Tensor:
    """Each row's squared mismatch norm, the sum over the last axis of
    (h - estimate)^2. The backward takes the square's two shares, then
    splits their sum between h and the estimate."""
    diff = h.data - estimate.data
    def bw(g):
        g = np.broadcast_to(np.expand_dims(g, -1), diff.shape)
        g_diff = g * diff
        g_diff = g_diff + g * diff
        _accum(h, g_diff)
        _accum(estimate, -g_diff)
    return _op((diff * diff).sum(axis=-1), (h, estimate), bw)


def masked_estimate(mask: Tensor, estimate: Tensor) -> Tensor:
    """The estimate's rows, [..., T, d], each times its event bit from the
    [..., T] mask. The backward gives the estimate its share first."""
    bits = mask.data.reshape(mask.shape + (1,))
    def bw(g):
        g_bits = _unbroadcast(g * estimate.data, bits.shape)
        _accum(estimate, g * bits)
        _accum(mask, g_bits.reshape(mask.shape))
    return _op(bits * estimate.data, (mask, estimate), bw)
