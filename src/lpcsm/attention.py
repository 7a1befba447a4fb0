"""Windowed causal multi-head attention, shared-projection and latent-KV.

Each query scores only the keys in its own trailing window, so attention
costs O(T·window) in time and memory."""

from __future__ import annotations

import numpy as np

from .numerics import Tensor, ParameterStore, NumericsError, concat, linear, _op, _accum

# Additive mask value; exp(x - 1e30) underflows to exactly 0, so masked
# positions carry exactly zero weight.
MASK_VALUE = -1e30


def _require(params: ParameterStore, names: list[str]) -> None:
    missing = [n for n in names if n not in params]
    if missing:
        raise NumericsError(f"missing attention parameters: {missing}")


def _attend(q: Tensor, k: Tensor, v: Tensor, window: int, heads: int) -> Tensor:
    """Windowed attention of the T rows of q over the rows of k and v, the
    last T of which sit at the queries' positions. One tape node.

    Slot j of query t holds key row past+t-w+1+j, w = min(window, past+T).
    Keys and values are gathered per head from rows padded with w-1 zero
    rows in front; the padded slots are masked out.
    """
    if window < 1:
        raise NumericsError("attention window must be >= 1")
    (t_len, d), kv_len = q.shape, k.shape[0]
    if d % heads or k.shape != (kv_len, d) or v.shape != k.shape or kv_len < t_len:
        raise NumericsError(f"attention shape mismatch: q {q.shape}, "
                            f"k {k.shape}, v {v.shape}, {heads} heads")
    w, hd, past = min(window, kv_len), d // heads, kv_len - t_len
    rows = past + np.arange(t_len)[:, None] + np.arange(w)  # padded row ids

    def windows(x):  # [past+T, d] -> [H, T, w, hd]
        padded = np.zeros((heads, w - 1 + kv_len, hd))
        padded[:, w - 1:] = x.reshape(kv_len, heads, hd).transpose(1, 0, 2)
        return padded[:, rows]

    def unwindow(gw):  # adjoint of `windows`: w shifted slice-adds
        full = np.zeros((heads, w - 1 + kv_len, hd))
        for j in range(w):
            full[:, past + j:past + j + t_len] += gw[:, :, j]
        return full[:, w - 1:].transpose(1, 0, 2).reshape(kv_len, d)

    kw, vw = windows(k.data), windows(v.data)
    qh = q.data.reshape(t_len, heads, 1, hd).transpose(1, 0, 2, 3)
    scale = 1.0 / np.sqrt(hd)
    scores = (qh @ kw.swapaxes(-1, -2)) * scale  # [H, T, 1, w]
    if w - 1 > past:  # the first queries' windows reach into the padding
        scores[:, rows[:, None] < w - 1] = MASK_VALUE
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    def bw(g):
        gh = g.reshape(t_len, heads, 1, hd).transpose(1, 0, 2, 3)
        gp = gh @ vw.swapaxes(-1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
        _accum(q, (gs @ kw).transpose(1, 0, 2, 3).reshape(t_len, d))
        _accum(k, unwindow(gs.swapaxes(-1, -2) * qh))
        _accum(v, unwindow(p.swapaxes(-1, -2) * gh))
    return _op((p @ vw).transpose(1, 0, 2, 3).reshape(t_len, d), (q, k, v), bw)


def _with_past(hidden: Tensor, past: Tensor | None) -> Tensor:
    return hidden if past is None else concat([past, hidden])


def local_attention(hidden: Tensor, window: int, heads: int,
                    params: ParameterStore, prefix: str = "attn.",
                    past: Tensor | None = None) -> Tensor:
    """Default path: q, k, v sliced from one shared linear projection.

    `past` holds earlier normed rows that the T rows of `hidden` may also
    attend to, within the window.
    """
    _require(params, [prefix + n for n in ("w_qkv", "b_qkv", "w_o", "b_o")])
    d = hidden.shape[-1]
    qkv = linear(_with_past(hidden, past), params[prefix + "w_qkv"],
                 params[prefix + "b_qkv"])
    q = qkv[-hidden.shape[0]:, 0:d]
    k, v = qkv[:, d:2 * d], qkv[:, 2 * d:3 * d]
    return linear(_attend(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])


def latent_attention(hidden: Tensor, window: int, heads: int,
                     params: ParameterStore, prefix: str = "attn.",
                     past: Tensor | None = None) -> Tensor:
    """Latent-KV variant: keys/values lifted from a compressed bottleneck.
    `past` is as in `local_attention`."""
    _require(params, [prefix + n for n in
                      ("w_q", "b_q", "w_z", "b_z", "w_k_up", "b_k_up",
                       "w_v_up", "b_v_up", "w_o", "b_o")])
    q = linear(hidden, params[prefix + "w_q"], params[prefix + "b_q"])
    z = linear(_with_past(hidden, past), params[prefix + "w_z"],
               params[prefix + "b_z"])
    k = linear(z, params[prefix + "w_k_up"], params[prefix + "b_k_up"])
    v = linear(z, params[prefix + "w_v_up"], params[prefix + "b_v_up"])
    return linear(_attend(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])
