"""Predictive correction: estimate the hidden state from the attention and
memory reads, then iteratively refine against the explicit mismatch."""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import Tensor, ParameterStore, NumericsError, concat


@dataclass
class PredictionState:
    estimate: Tensor
    step: int


def _mlp(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    h = (x @ params[prefix + "w1"] + params[prefix + "b1"]).tanh()
    return h @ params[prefix + "w2"] + params[prefix + "b2"]


def predict_init(a: Tensor, r: Tensor, params: ParameterStore,
                 prefix: str = "pred.") -> PredictionState:
    """Initial estimate from the concatenated attention and memory reads."""
    if a.shape != r.shape:
        raise NumericsError("predict_init width mismatch")
    est = _mlp(concat([a, r], axis=-1), params, prefix)
    return PredictionState(estimate=est, step=0)


def refine_step(a: Tensor, r: Tensor, h: Tensor, state: PredictionState,
                params: ParameterStore, max_steps: int,
                prefix: str = "refine.") -> PredictionState:
    """One additive refinement driven by the current mismatch h - estimate."""
    if state.step >= max_steps:
        raise NumericsError("refinement step budget exhausted")
    err = h - state.estimate
    est = state.estimate + _mlp(concat([a, r, err], axis=-1), params, prefix)
    return PredictionState(estimate=est, step=state.step + 1)

