"""Windowed causal multi-head attention, shared-projection and latent-KV.

Each query scores only the keys in its own trailing window. The queries
go in blocks of up to `window` rows, and each block scores one contiguous
run of keys with a dense matmul, as Longformer's chunked form does, so
attention costs O(T·window) in time and memory."""

from __future__ import annotations

import math

import numpy as np

from .numerics import Tensor, ParameterStore, NumericsError, linear, _op, _accum

# Additive mask value; exp(x - 1e30) underflows to exactly 0, so masked
# positions carry exactly zero weight.
MASK_VALUE = -1e30


def _attend(q: Tensor, k: Tensor, v: Tensor, window: int, heads: int) -> Tensor:
    """Windowed attention of the T rows of q over the rows of k and v, the
    last T of which sit at the queries' positions. q is [T, d] or a batch
    [B, T, d], with k and v alike. One tape node.

    Query t sees key rows past+t-w+1 .. past+t, w = min(window, past+T).
    The queries go in nb blocks of bs = min(window, T) rows, and block b
    sees one run of bs+w-1 key rows, from row past+b*bs of the rows padded
    with w-1 zero rows in front. So the scores, the mix and each gradient
    are one batched matmul over the blocks; slots outside a query's window
    or in the padding are masked out. A span of one block whose run lies
    inside the rows, past >= w-1 (each one-token decode step once the
    window is full), has its q, k and v read through head views instead.
    The backward adds the blocks' key and value gradients back into the
    padded rows with one slice-add per bs slots of a block.
    """
    if window < 1:
        raise NumericsError("attention window must be >= 1")
    (t_len, d), kv_len = q.shape[-2:], k.shape[-2]
    if (heads < 1 or d % heads or k.shape != q.shape[:-2] + (kv_len, d)
            or v.shape != k.shape or kv_len < t_len):
        raise NumericsError(f"attention shape mismatch: q {q.shape}, "
                            f"k {k.shape}, v {v.shape}, {heads} heads")
    w, hd, past = min(window, kv_len), d // heads, kv_len - t_len
    lead = q.shape[:-2]  # the batch axis, if any
    bs = min(w, t_len)
    nb, span = -(-t_len // bs), bs + w - 1
    block_shape = lead + (heads, nb, bs, hd)
    # Padded rows: room for the last block's run and for every slice-add.
    n_rows = past + (nb - 1 - (-span // bs)) * bs

    def heads_of(x):  # [..., n, d] -> a [..., H, n, hd] view
        return x.reshape(x.shape[:-1] + (heads, hd)).swapaxes(-3, -2)

    def by_head(x, front, rows):  # [..., n, d] -> [..., H, rows, hd]
        out = np.zeros(lead + (heads, rows, hd))
        out[..., front:front + x.shape[-2], :] = heads_of(x)
        return out

    def by_row(x, n):  # [..., H, rows, hd] or its blocks -> first n [..., n, d]
        x = x.reshape(lead + (heads, -1, hd))[..., :n, :]
        return x.swapaxes(-3, -2).reshape(lead + (n, d))

    def blocks(x):  # padded [..., H, n_rows, hd] -> [..., H, nb, span, hd]
        if nb == 1:
            return x[..., None, past:past + span, :]
        s = x.strides
        return np.lib.stride_tricks.as_strided(
            x[..., past:, :], block_shape[:-2] + (span, hd),
            s[:-2] + (bs * s[-2],) + s[-2:], writeable=False)

    def padded():  # q in blocks; k and v with w-1 zero rows in front
        return (by_head(q.data, 0, nb * bs).reshape(block_shape),
                by_head(k.data, w - 1, n_rows), by_head(v.data, w - 1, n_rows))

    if nb == 1 and past >= w - 1:  # one block, all its keys in the rows
        qb, kb, vb = (heads_of(x.data)[..., None, -n:, :]
                      for x, n in ((q, t_len), (k, span), (v, span)))
    else:
        qb, kp, vp = padded()
        kb, vb = blocks(kp), blocks(vp)
    scale = 1.0 / math.sqrt(hd)
    scores = (qb @ kb.swapaxes(-1, -2)) * scale  # [..., nb, bs, span]
    slot = np.arange(span)
    if bs > 1:  # slot j of block row i is in that query's window iff
        off = slot - np.arange(bs)[:, None]  # i <= j < i + w
        np.copyto(scores, MASK_VALUE, where=(off < 0) | (off >= w))
    if w - 1 > past:  # the first blocks reach into the padding
        np.copyto(scores, MASK_VALUE, where=(
            past + bs * np.arange(nb)[:, None, None] + slot < w - 1))
    scores -= scores.max(axis=-1, keepdims=True)
    p = np.exp(scores, out=scores)
    p /= p.sum(axis=-1, keepdims=True)

    def bw(g):  # rebuilds the padded copies, so the tape keeps only p
        qb, kp, vp = padded()
        gb = by_head(g, 0, nb * bs).reshape(block_shape)
        gs = gb @ blocks(vp).swapaxes(-1, -2)  # d/dp, then d/dscores
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        _accum(q, by_row(gs @ blocks(kp), t_len))
        for x, a, b in ((k, gs, qb), (v, p, gb)):
            g_blocks = a.swapaxes(-1, -2) @ b  # [..., nb, span, hd]
            gx = np.zeros(kp.shape)
            for c in range(0, span, bs):  # slot c+i of block b: past+b*bs+c+i
                n = min(bs, span - c)
                gx[..., past + c:past + c + nb * bs, :].reshape(
                    block_shape)[..., :n, :] += g_blocks[..., c:c + n, :]
            _accum(x, by_row(gx[..., w - 1:, :], kv_len))
    return _op(by_row(p @ vb, t_len), (q, k, v), bw)


def local_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                    params: ParameterStore, prefix: str = "attn.") -> Tensor:
    """Default path: q, k, v sliced from one shared linear projection.

    `hidden` is a [T, d] span or a [B, T, d] batch, and `rows` the normed
    rows it may attend to, within the window: earlier rows, if any, then
    the span's own T rows, shaped alike.
    """
    d = hidden.shape[-1]
    qkv = linear(rows, params[prefix + "w_qkv"], params[prefix + "b_qkv"])
    q = qkv[..., -hidden.shape[-2]:, 0:d]
    k, v = qkv[..., d:2 * d], qkv[..., 2 * d:3 * d]
    return linear(_attend(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])


def latent_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                     params: ParameterStore, prefix: str = "attn.") -> Tensor:
    """Latent-KV variant: keys/values lifted from a compressed bottleneck.
    `rows` is as in `local_attention`."""
    q = linear(hidden, params[prefix + "w_q"], params[prefix + "b_q"])
    z = linear(rows, params[prefix + "w_z"], params[prefix + "b_z"])
    k = linear(z, params[prefix + "w_k_up"], params[prefix + "b_k_up"])
    v = linear(z, params[prefix + "w_v_up"], params[prefix + "b_v_up"])
    return linear(_attend(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])
