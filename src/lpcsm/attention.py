"""Windowed causal multi-head attention, shared-projection and latent-KV.

Each query scores only the keys in its own trailing window. The queries
go in blocks of up to `window` rows, and each block scores one contiguous
run of keys with a dense matmul, as Longformer's chunked form does, so
attention costs O(T·window) in time and memory."""

from __future__ import annotations

import math

import numpy as np

from .numerics import (Tensor, ParameterStore, NumericsError, _accum, _op,
                       affine, affine_vjp)

# Additive mask value; exp(x - 1e30) underflows to exactly 0, so masked
# positions carry exactly zero weight.
MASK_VALUE = -1e30


def _slot_max(x: np.ndarray) -> np.ndarray:
    """np.maximum.reduce(x, axis=-1, keepdims=True), taken slot by slot:
    one np.maximum per slot of the last axis. A block's score rows are
    many and short, and a reduce over each costs more; a max is exact, so
    the values are the same."""
    top = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j], out=top)
    return top[..., None]


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, window: int,
            heads: int) -> tuple:
    """Windowed attention of the T rows of q over the rows of k and v, the
    last T of which sit at the queries' positions. q is [T, d] or a batch
    [B, T, d], with k and v alike. Returns the mixed rows and their
    backward, `vjp(g) -> (dq, dk, dv)`.

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
        return (by_head(q, 0, nb * bs).reshape(block_shape),
                by_head(k, w - 1, n_rows), by_head(v, w - 1, n_rows))

    if nb == 1 and past >= w - 1:  # one block, all its keys in the rows
        qb, kb, vb = (heads_of(x)[..., None, -n:, :]
                      for x, n in ((q, t_len), (k, span), (v, span)))
    else:
        qb, kp, vp = padded()
        kb, vb = blocks(kp), blocks(vp)
    scale = 1.0 / math.sqrt(hd)
    scores = (qb @ kb.swapaxes(-1, -2)) * scale  # [..., nb, bs, span]
    if bs > 1:  # slot j of block row i is in that query's window iff
        off = np.arange(span) - np.arange(bs)[:, None]  # i <= j < i + w
        np.copyto(scores, MASK_VALUE, where=(off < 0) | (off >= w))
    if w - 1 > past:  # the first blocks reach into the padding
        np.copyto(scores, MASK_VALUE, where=(
            past + bs * np.arange(nb)[:, None, None] + np.arange(span)
            < w - 1))
    # The ufuncs' reduce is the methods' arithmetic without their dispatch.
    scores -= (_slot_max(scores) if bs > 1
               else np.maximum.reduce(scores, axis=-1, keepdims=True))
    p = np.exp(scores, out=scores)
    p /= np.add.reduce(p, axis=-1, keepdims=True)

    def vjp(g):  # rebuilds the padded copies, so the tape keeps only p
        qb, kp, vp = padded()
        gb = by_head(g, 0, nb * bs).reshape(block_shape)
        gs = gb @ blocks(vp).swapaxes(-1, -2)  # d/dp, then d/dscores
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= scale
        grads = [by_row(gs @ blocks(kp), t_len)]
        for a, b in ((gs, qb), (p, gb)):
            g_blocks = a.swapaxes(-1, -2) @ b  # [..., nb, span, hd]
            gx = np.zeros(kp.shape)
            for c in range(0, span, bs):  # slot c+i of block b: past+b*bs+c+i
                n = min(bs, span - c)
                gx[..., past + c:past + c + nb * bs, :].reshape(
                    block_shape)[..., :n, :] += g_blocks[..., c:c + n, :]
            grads.append(by_row(gx[..., w - 1:, :], kv_len))
        return tuple(grads)
    return by_row(p @ vb, t_len), vjp


def local_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                    params: ParameterStore, prefix: str = "attn.") -> Tensor:
    """Default path: q, k, v sliced from one shared linear projection, as
    one tape node.

    `hidden` is a [T, d] span or a [B, T, d] batch, and `rows` the normed
    rows it may attend to, within the window: earlier rows, if any, then
    the span's own T rows, shaped alike. The backward runs the output
    projection's, the attention's and the shared projection's in turn.
    """
    t_len, d = hidden.shape[-2:]
    w_qkv, b_qkv = params[prefix + "w_qkv"], params[prefix + "b_qkv"]
    w_o, b_o = params[prefix + "w_o"], params[prefix + "b_o"]
    qkv = affine(rows.data, w_qkv.data, b_qkv.data)
    mixed, attend_vjp = _attend(qkv[..., -t_len:, 0:d], qkv[..., d:2 * d],
                                qkv[..., 2 * d:3 * d], window, heads)
    out = affine(mixed, w_o.data, b_o.data)
    def bw(g):
        g_q, g_k, g_v = attend_vjp(affine_vjp(g, mixed, w_o, b_o, out))
        # Each slice's gradient lands on +0.0, as three zero-filled ones
        # summed did.
        g_qkv = np.zeros_like(qkv)
        g_qkv[..., -t_len:, 0:d] += g_q
        g_qkv[..., d:2 * d] += g_k
        g_qkv[..., 2 * d:3 * d] += g_v
        _accum(rows, affine_vjp(g_qkv, rows.data, w_qkv, b_qkv, qkv))
    return _op(out, (rows, w_qkv, b_qkv, w_o, b_o), bw)


def latent_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                     params: ParameterStore, prefix: str = "attn.") -> Tensor:
    """Latent-KV variant: keys/values lifted from a compressed bottleneck,
    as one tape node. `rows` is as in `local_attention`; the backward
    runs the output projection's, the attention's, then those of q, k, v
    and z."""
    w_q, b_q, w_z, b_z, w_k, b_k, w_v, b_v, w_o, b_o = (
        params[prefix + name] for name in (
            "w_q", "b_q", "w_z", "b_z", "w_k_up", "b_k_up", "w_v_up",
            "b_v_up", "w_o", "b_o"))
    q = affine(hidden.data, w_q.data, b_q.data)
    z = affine(rows.data, w_z.data, b_z.data)
    k = affine(z, w_k.data, b_k.data)
    v = affine(z, w_v.data, b_v.data)
    mixed, attend_vjp = _attend(q, k, v, window, heads)
    out = affine(mixed, w_o.data, b_o.data)
    def bw(g):
        g_q, g_k, g_v = attend_vjp(affine_vjp(g, mixed, w_o, b_o, out))
        _accum(hidden, affine_vjp(g_q, hidden.data, w_q, b_q, q))
        g_z = (affine_vjp(g_k, z, w_k, b_k, k)
               + affine_vjp(g_v, z, w_v, b_v, v))
        _accum(rows, affine_vjp(g_z, rows.data, w_z, b_z, z))
    # The tape visits inputs last first. Rows, then hidden, is the order
    # the reference op chain visits them in, so every other node keeps its
    # place on the tape, and every gradient sum its order.
    return _op(out, (hidden, rows, w_q, b_q, w_z, b_z, w_k, b_k, w_v, b_v,
                     w_o, b_o), bw)
