"""Predictive correction: estimate the hidden state from the attention and
memory reads, then iteratively refine against the explicit mismatch."""

from __future__ import annotations

from .numerics import Tensor, ParameterStore, NumericsError, concat, linear


def _mlp(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    h = linear(x, params[prefix + "w1"], params[prefix + "b1"], "tanh")
    return linear(h, params[prefix + "w2"], params[prefix + "b2"])


def predict_init(a: Tensor, r: Tensor, params: ParameterStore,
                 prefix: str = "pred.") -> Tensor:
    """Initial estimate from the concatenated attention and memory reads."""
    if a.shape != r.shape:
        raise NumericsError("predict_init width mismatch")
    return _mlp(concat([a, r], axis=-1), params, prefix)


def refine_step(a: Tensor, r: Tensor, h: Tensor, estimate: Tensor,
                params: ParameterStore, prefix: str = "refine.") -> Tensor:
    """One additive refinement driven by the current mismatch h - estimate."""
    err = h - estimate
    return estimate + _mlp(concat([a, r, err], axis=-1), params, prefix)
