"""Windowed causal multi-head attention, shared-projection and latent-KV."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, ParameterStore, NumericsError, concat

# Additive mask value; exp(x - 1e30) underflows to exactly 0, so masked
# positions carry exactly zero weight.
MASK_VALUE = -1e30


@dataclass
class AttentionConfig:
    window: int
    heads: int
    head_dim: int
    latent_dim: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise NumericsError("attention window must be >= 1")

    @property
    def width(self) -> int:
        return self.heads * self.head_dim


def window_mask(t_len: int, window: int, past: int = 0) -> np.ndarray:
    """[T, past+T] additive mask for T queries after `past` earlier keys:
    query t sits at key position past+t and sees keys in
    [past+t-w+1, past+t]; 0 inside, MASK_VALUE outside."""
    q = np.arange(past, past + t_len)[:, None]
    k = np.arange(past + t_len)[None, :]
    ok = (k <= q) & (k >= q - window + 1)
    return np.where(ok, 0.0, MASK_VALUE)


def _require(params: ParameterStore, names: list[str]) -> None:
    missing = [n for n in names if n not in params]
    if missing:
        raise NumericsError(f"missing attention parameters: {missing}")


def _attend(q: Tensor, k: Tensor, v: Tensor, cfg: AttentionConfig,
            params: ParameterStore, prefix: str) -> Tensor:
    """q holds the T newest rows; k and v also hold the rows before them."""
    t_len, kv_len = q.shape[0], k.shape[0]
    h, hd = cfg.heads, cfg.head_dim
    # [T, d] -> [H, T, hd]
    qh = q.reshape((t_len, h, hd)).transpose((1, 0, 2))
    kh = k.reshape((kv_len, h, hd)).transpose((1, 0, 2))
    vh = v.reshape((kv_len, h, hd)).transpose((1, 0, 2))
    scores = (qh @ kh.transpose((0, 2, 1))) * (1.0 / np.sqrt(hd))
    scores = scores + Tensor(window_mask(t_len, cfg.window, kv_len - t_len))
    mixed = scores.softmax() @ vh
    merged = mixed.transpose((1, 0, 2)).reshape((t_len, h * hd))
    return merged @ params[prefix + "w_o"] + params[prefix + "b_o"]


def _with_past(hidden: Tensor, past: Tensor | None) -> Tensor:
    return hidden if past is None else concat([past, hidden])


def local_attention(hidden: Tensor, cfg: AttentionConfig,
                    params: ParameterStore, prefix: str = "attn.",
                    past: Tensor | None = None) -> Tensor:
    """Default path: q, k, v sliced from one shared linear projection.

    `past` holds earlier normed rows that the T rows of `hidden` may also
    attend to, within the window.
    """
    _require(params, [prefix + n for n in ("w_qkv", "b_qkv", "w_o", "b_o")])
    d = cfg.width
    qkv = _with_past(hidden, past) @ params[prefix + "w_qkv"] + params[prefix + "b_qkv"]
    q = qkv[-hidden.shape[0]:, 0:d]
    k, v = qkv[:, d:2 * d], qkv[:, 2 * d:3 * d]
    return _attend(q, k, v, cfg, params, prefix)


def latent_attention(hidden: Tensor, cfg: AttentionConfig,
                     params: ParameterStore, prefix: str = "attn.",
                     past: Tensor | None = None) -> Tensor:
    """Latent-KV variant: keys/values lifted from a compressed bottleneck.
    `past` is as in `local_attention`."""
    if cfg.latent_dim is None:
        raise NumericsError("latent_attention requires latent_dim")
    _require(params, [prefix + n for n in
                      ("w_q", "b_q", "w_z", "b_z", "w_k_up", "b_k_up",
                       "w_v_up", "b_v_up", "w_o", "b_o")])
    q = hidden @ params[prefix + "w_q"] + params[prefix + "b_q"]
    z = _with_past(hidden, past) @ params[prefix + "w_z"] + params[prefix + "b_z"]
    k = z @ params[prefix + "w_k_up"] + params[prefix + "b_k_up"]
    v = z @ params[prefix + "w_v_up"] + params[prefix + "b_v_up"]
    return _attend(q, k, v, cfg, params, prefix)
