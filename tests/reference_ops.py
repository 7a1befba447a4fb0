"""Tensor ops that the package no longer calls, as plain functions: the
reference chains in `reference_mechanisms`, `reference_controller` and
`reference_objective` are built from them, and `test_numerics` checks
their gradients. Each gives the floats, forward and backward, of the
Tensor method it replaced (`div` and `sub` take a constant on either
side, as `/`, `-` and their reflected forms did)."""

from __future__ import annotations

import numpy as np

from lpcsm.numerics import Tensor, _accum, _op, _wrap
from lpcsm.numerics import sigmoid as _sigmoid


def neg(a: Tensor) -> Tensor:
    return _op(-a.data, (a,), lambda g: _accum(a, -g))


def mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    def bw(g):
        n = (a.data.size if axis is None
             else np.prod(np.take(a.data.shape, axis)))
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape) / n)
    return _op(a.data.mean(axis=axis, keepdims=keepdims), (a,), bw)


def reshape(a: Tensor, shape) -> Tensor:
    return _op(a.data.reshape(shape), (a,),
               lambda g: _accum(a, g.reshape(a.data.shape)))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * (1.0 - y * y)))


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * y * (1.0 - y)))


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), without overflow for large x."""
    return _op(np.logaddexp(0.0, a.data), (a,),
               lambda g: _accum(a, g * _sigmoid(a.data)))


def exp(a: Tensor) -> Tensor:
    y = np.exp(a.data)
    return _op(y, (a,), lambda g: _accum(a, g * y))


def log(a: Tensor) -> Tensor:
    return _op(np.log(a.data), (a,), lambda g: _accum(a, g / a.data))


def div(a, b) -> Tensor:
    """a / b, either of which may be a constant."""
    a, b = _wrap(a), _wrap(b)
    def bw(g):
        _accum(a, g / b.data)
        _accum(b, -g * a.data / (b.data * b.data))
    return _op(a.data / b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    """a - b, either of which may be a constant."""
    a, b = _wrap(a), _wrap(b)
    def bw(g):
        _accum(a, g)
        _accum(b, -g)
    return _op(a.data - b.data, (a, b), bw)
