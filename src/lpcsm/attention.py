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
    last T of which sit at the queries' positions. q is [T, d] or a batch
    [B, T, d], with k and v alike. One tape node.

    Slot j of query t holds key row past+t-w+1+j, w = min(window, past+T).
    Keys and values are gathered per sequence and head from rows padded
    with w-1 zero rows in front; the padded slots are masked out. The
    backward works one slot at a time on the padded rows.
    """
    if window < 1:
        raise NumericsError("attention window must be >= 1")
    (t_len, d), kv_len = q.shape[-2:], k.shape[-2]
    if (d % heads or k.shape != q.shape[:-2] + (kv_len, d) or v.shape != k.shape
            or kv_len < t_len):
        raise NumericsError(f"attention shape mismatch: q {q.shape}, "
                            f"k {k.shape}, v {v.shape}, {heads} heads")
    w, hd, past = min(window, kv_len), d // heads, kv_len - t_len
    lead = q.shape[:-2]  # the batch axis, if any
    rows = past + np.arange(t_len)[:, None] + np.arange(w)  # padded row ids

    def padded(x):  # [..., past+T, d] -> [..., H, w-1+past+T, hd]
        out = np.zeros(lead + (heads, w - 1 + kv_len, hd))
        out[..., w - 1:, :] = x.reshape(lead + (kv_len, heads, hd)).swapaxes(-3, -2)
        return out

    def by_head(x):  # [..., T, d] -> [..., H, T, 1, hd]
        return x.reshape(lead + (t_len, heads, 1, hd)).swapaxes(-4, -3)

    def by_row(x, shape):  # [..., H, n, hd] -> [..., n, d]
        return x.swapaxes(-3, -2).reshape(shape)

    kp, vp = padded(k.data), padded(v.data)
    qh = by_head(q.data)
    scale = 1.0 / np.sqrt(hd)
    scores = (qh @ kp[..., rows, :].swapaxes(-1, -2)) * scale  # [..., H, T, 1, w]
    if w - 1 > past:  # the first queries' windows reach into the padding
        scores[..., rows[:, None] < w - 1] = MASK_VALUE
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    def bw(g):  # slot by slot, so no [T, w] window is kept or rebuilt
        # Slot j of every query is one shifted slice of the padded rows.
        slots = [slice(past + j, past + j + t_len) for j in range(w)]
        gh, q1, p1 = by_head(g)[..., 0, :], qh[..., 0, :], p[..., 0, :]
        gp = np.stack([(gh * vp[..., s, :]).sum(axis=-1) for s in slots],
                      axis=-1)
        gs = p1 * (gp - (gp * p1).sum(axis=-1, keepdims=True)) * scale
        gq, gk, gv = np.zeros(gh.shape), np.zeros(kp.shape), np.zeros(vp.shape)
        for j, s in enumerate(slots):
            gq += gs[..., j, None] * kp[..., s, :]
            gk[..., s, :] += gs[..., j, None] * q1
            gv[..., s, :] += p1[..., j, None] * gh
        _accum(q, by_row(gq, q.shape))
        _accum(k, by_row(gk[..., w - 1:, :], k.shape))
        _accum(v, by_row(gv[..., w - 1:, :], v.shape))
    out = (p @ vp[..., rows, :]).swapaxes(-4, -3).reshape(q.shape)
    return _op(out, (q, k, v), bw)


def _with_past(hidden: Tensor, past: Tensor | None) -> Tensor:
    return hidden if past is None else concat([past, hidden], axis=-2)


def local_attention(hidden: Tensor, window: int, heads: int,
                    params: ParameterStore, prefix: str = "attn.",
                    past: Tensor | None = None) -> Tensor:
    """Default path: q, k, v sliced from one shared linear projection.

    `hidden` is a [T, d] span or a [B, T, d] batch; `past` holds earlier
    normed rows, shaped alike, that its T rows may also attend to, within
    the window.
    """
    _require(params, [prefix + n for n in ("w_qkv", "b_qkv", "w_o", "b_o")])
    d = hidden.shape[-1]
    qkv = linear(_with_past(hidden, past), params[prefix + "w_qkv"],
                 params[prefix + "b_qkv"])
    q = qkv[..., -hidden.shape[-2]:, 0:d]
    k, v = qkv[..., d:2 * d], qkv[..., 2 * d:3 * d]
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
