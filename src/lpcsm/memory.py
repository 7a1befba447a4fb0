"""Dual-timescale memory: tokenwise fast state, gated dual read, and
chunk-boundary slow writes transported through the novelty geometry.

The fast and read functions take one token's row, a [T, d] span of
them or a [B, T, d] batch of spans, and each call is one tape node; a
span's fast states come from one `gated_scan`, and all of its slow
writes, one per chunk boundary, from one `slow_write` node. A span
leaves a `MemoryState` for the next one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import (
    Tensor, ParameterStore, _accum, _op, _unbroadcast, affine, affine_vjp,
    gated_scan, gated_scan_vjp, sigmoid,
)
from .ont import transport_array, transport_vjp


@dataclass
class MemoryState:
    """The memory after the tokens so far: [d] tensors for one sequence,
    [B, d] for a batch."""
    fast: Tensor  # fast state after the last token
    slow: Tensor  # slow state after the last chunk boundary
    chunk_sum: Tensor  # sum of the fast states of the open chunk
    chunk_count: int = 0  # tokens in the open chunk, below chunk_size

    @classmethod
    def fresh(cls, shape: tuple) -> "MemoryState":
        return cls(*(Tensor(np.zeros(shape)) for _ in range(3)))


def fast_update(h: Tensor, prev: Tensor, params: ParameterStore,
                prefix: str = "mem.") -> Tensor:
    """Gated tokenwise update: d*prev + (1-d)*tanh write. For a [T, d]
    span of rows (or a [B, T, d] batch) it returns the states after each
    row, from a [d] (or [B, d]) `prev`. One tape node: the gates, the
    gated write and the scan."""
    w_d, b_d = params[prefix + "w_d"], params[prefix + "b_d"]
    w_u, b_u = params[prefix + "w_u"], params[prefix + "b_u"]
    d = affine(h.data, w_d.data, b_d.data, "sigmoid")
    u = affine(h.data, w_u.data, b_u.data, "tanh")
    keep = 1.0 - d
    rows = gated_scan(d, keep * u, prev.data)
    def bw(g):
        g_d, g_write, g_prev = gated_scan_vjp(g, d, rows, prev.data)
        _accum(prev, g_prev)
        g_d = g_d - g_write * u  # the decay's share through 1 - d
        _accum(h, affine_vjp(g_d, h.data, w_d, b_d, d, "sigmoid"))
        _accum(h, affine_vjp(g_write * keep, h.data, w_u, b_u, u, "tanh"))
    return _op(rows, (h, prev, w_d, b_d, w_u, b_u), bw)


def memory_read(h: Tensor, fast: Tensor, slow: Tensor,
                params: ParameterStore, prefix: str = "mem.") -> Tensor:
    """Separate sigmoid gates query the fast and slow halves, then mix,
    as one tape node. A [T, d] span, or a [B, T, d] batch, reads fast
    rows of its shape and slow rows of its shape or one slow state per
    sequence."""
    w_qf, b_qf = params[prefix + "w_qf"], params[prefix + "b_qf"]
    w_qs, b_qs = params[prefix + "w_qs"], params[prefix + "b_qs"]
    w_r, b_r = params[prefix + "w_r"], params[prefix + "b_r"]
    qf = affine(h.data, w_qf.data, b_qf.data, "sigmoid")
    qs = affine(h.data, w_qs.data, b_qs.data, "sigmoid")
    s = slow.data
    if slow.ndim == h.ndim - 1 > 1:  # one [B, d] state for a whole batch
        s = s.reshape(s.shape[:-1] + (1, s.shape[-1]))
    gated = np.concatenate([qf * fast.data, qs * s], axis=-1)
    out = affine(gated, w_r.data, b_r.data)
    def bw(g):
        g_f, g_s = np.split(affine_vjp(g, gated, w_r, b_r, out), 2, axis=-1)
        _accum(fast, g_f * qf)
        _accum(h, affine_vjp(g_f * fast.data, h.data, w_qf, b_qf, qf,
                             "sigmoid"))
        _accum(h, affine_vjp(g_s * s, h.data, w_qs, b_qs, qs, "sigmoid"))
        _accum(slow, _unbroadcast(g_s * qs, s.shape).reshape(slow.shape))
    # The tape visits inputs last first. Slow, h, then fast is the order
    # the reference op chain visits them in, so every other node keeps its
    # place on the tape, and every gradient sum its order.
    return _op(out, (fast, h, slow, w_qf, b_qf, w_qs, b_qs, w_r, b_r), bw)


def slow_write(fast: Tensor, n: Tensor, state: MemoryState, chunk_size: int,
               alpha_n: float, ont_enabled: bool, params: ParameterStore,
               prefix: str = "mem.") -> tuple[Tensor, int]:
    """The slow state each row of a span reads, and the number K of
    writes the span makes; `state` is advanced in place past the span.

    `fast` and `n` are the span's [T, d] (or [B, T, d]) fast states and
    normed rows. A chunk closes every `chunk_size` tokens of the sequence,
    at the row counts `ends`, the same for every sequence. Chunk k covers
    rows ends[k-1]:ends[k] (from 0 for the first, which also adds the
    carried `state.chunk_sum`); its summary c is the mean fast state of
    the chunk, transported against the slow state when ONT is on. The
    write is g*slow + (1-g)*tanh(c @ w_c + b_c) with the gate
    g = sigmoid(n[end-1] @ w_g + b_g), after that row's read, so each row
    reads the state of its chunk; a span that closes no chunk reads
    `state.slow` itself. One tape node gives the K+1 states, before the
    span and after each write: the forward runs the writes in numpy over
    [B, d] rows, with one transport call per chunk, and the backward runs
    their adjoint in reverse order.
    """
    t_len, d = fast.shape[-2:]
    ends = list(range(chunk_size - state.chunk_count, t_len + 1, chunk_size))
    if not ends:
        state.chunk_sum = _open_chunk_sum(fast, 0, state.chunk_sum)
        state.chunk_count += t_len
        return state.slow, 0
    w_g, b_g = params[prefix + "w_g"], params[prefix + "b_g"]
    w_c, b_c = params[prefix + "w_c"], params[prefix + "b_c"]
    slow, chunk_sum = state.slow, state.chunk_sum
    # alpha = 0 transport is the identity for any reference; skipping it
    # keeps the backward identical to the disabled path.
    transported = ont_enabled and alpha_n != 0.0
    scale = 1.0 / chunk_size
    fast_rows, n_rows = (x.data.reshape(-1, t_len, d) for x in (fast, n))
    k_count, batch = len(ends), fast_rows.shape[0]
    rows = np.asarray(ends) - 1

    def batch_major(x):  # [K, B, d] <-> [B, K, d]
        return np.swapaxes(x, 0, 1)

    # Per write, [K, B, d]: the chunk mean, its transport, the gate and the
    # tanh write; states[k] is the slow state before write k. The means and
    # gates do not depend on the slow state, so they are computed for all
    # writes at once; the gates' matmul is stacked, since a 2-D [K*B, d]
    # one rounds unlike each write's [B, d] one.
    write = np.empty((k_count, batch, d))
    summary = np.empty((k_count, batch, d))
    summary[0] = (chunk_sum.data.reshape(-1, d)
                  + fast_rows[:, :ends[0]].sum(axis=1)) * scale
    summary[1:] = batch_major(fast_rows[:, ends[0]:ends[-1]].reshape(
        batch, k_count - 1, chunk_size, d).sum(axis=2)) * scale
    gate = sigmoid(batch_major(n_rows[:, rows]) @ w_g.data + b_g.data)
    keep = 1.0 - gate
    states = np.empty((k_count + 1, batch, d))
    states[0] = slow.data.reshape(-1, d)
    c_star = np.empty_like(write) if transported else summary
    for c, c_t, w_t, g_t, keep_t, prev, nxt in zip(
            summary, c_star, write, gate, keep, states, states[1:]):
        if transported:
            c_t[...] = transport_array(alpha_n, c, prev)
        np.tanh(np.add(c_t @ w_c.data, b_c.data, out=w_t), out=w_t)
        np.multiply(g_t, prev, out=nxt)
        nxt += keep_t * w_t

    def bw(g):
        g = batch_major(g.reshape(batch, k_count + 1, d))
        # dL/d of each written state, of the tanh write's pre-activation
        # and of the mean
        g_state, g_write, g_summary = np.empty((3, k_count, batch, d))
        g_carry = np.zeros((batch, d))  # dL/dslow from later writes
        d_tanh = 1.0 - write * write
        for g_k, gs, gw, g_sum, keep_t, dt, g_t, c, prev in zip(*(
                x[::-1] for x in (g[1:], g_state, g_write, g_summary, keep,
                                  d_tanh, gate, summary, states[:-1]))):
            np.add(g_carry, g_k, out=gs)
            np.multiply(gs, keep_t, out=gw)
            gw *= dt
            g_c = gw @ w_c.data.T
            np.multiply(gs, g_t, out=g_carry)
            if transported:
                g_c, g_m = transport_vjp(alpha_n, c, prev, g_c)
                g_carry += g_m
            np.multiply(g_c, scale, out=g_sum)
        # dL/d of the gate's pre-activation
        g_gate = g_state * (states[:-1] - write) * gate * keep
        g_fast = np.zeros_like(fast_rows)
        g_fast[:, :ends[-1]] = np.repeat(batch_major(g_summary),
                                         np.diff(ends, prepend=0), axis=1)
        g_n = np.zeros_like(n_rows)
        g_n[:, rows] = batch_major(g_gate) @ w_g.data.T
        _accum(fast, g_fast.reshape(fast.shape))
        _accum(n, g_n.reshape(n.shape))
        _accum(chunk_sum, g_summary[0])
        _accum(slow, g_carry + g[0])
        _accum(w_g, n_rows[:, rows].reshape(-1, d).T
               @ batch_major(g_gate).reshape(-1, d))
        _accum(b_g, g_gate.sum(axis=(0, 1)))
        _accum(w_c, c_star.reshape(-1, d).T @ g_write.reshape(-1, d))
        _accum(b_c, g_write.sum(axis=(0, 1)))
    out = _op(batch_major(states).reshape(fast.shape[:-2] + (k_count + 1, d)),
              (fast, n, chunk_sum, slow, w_g, b_g, w_c, b_c), bw)
    state.slow = out[..., k_count, :]
    state.chunk_sum = _open_chunk_sum(fast, ends[-1])
    state.chunk_count = t_len - ends[-1]
    return _chunk_reads(out, ends, t_len), k_count


def _open_chunk_sum(fast: Tensor, start: int,
                    carried: Tensor | None = None) -> Tensor:
    """The sum of the fast states from row `start` on, plus the `carried`
    sum if given: the open chunk's sum, as one tape node."""
    data = fast.data[..., start:, :].sum(axis=-2)
    if carried is not None:
        data = carried.data + data
    def bw(g):
        if carried is not None:
            _accum(carried, g)
        g_fast = np.zeros_like(fast.data)
        g_fast[..., start:, :] = g[..., None, :]
        _accum(fast, g_fast)
    return _op(data, (fast,) if carried is None else (carried, fast), bw)


def _chunk_reads(states: Tensor, ends: list, t_len: int) -> Tensor:
    """The slow state each of the span's rows reads, from the K+1 `states`
    of `slow_write`: row t reads the state after the writes at ends <= t.
    One tape node; its backward sums each chunk's rows in order from
    +0.0, the floats np.add.at gave."""
    data = states.data[..., np.searchsorted(ends, np.arange(t_len),
                                            side="right"), :]
    def bw(g):
        g = np.ascontiguousarray(g)
        lead, d, k_count = g.shape[:-2], g.shape[-1], len(ends)
        g_states = np.zeros_like(states.data)
        g_states[..., 0, :] = _sum_rows(g[..., :ends[0], :])
        if k_count > 1:  # the whole chunks between the first and last end
            g_states[..., 1:k_count, :] = _sum_rows(
                g[..., ends[0]:ends[-1], :].reshape(
                    lead + (k_count - 1, ends[1] - ends[0], d)))
        if ends[-1] < t_len:
            g_states[..., k_count, :] = _sum_rows(g[..., ends[-1]:, :])
        _accum(states, g_states)
    return _op(data, (states,), bw)


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """x summed over axis -2 one row after another from +0.0, as np.add.at
    adds. numpy sums a non-last axis so while the last axis is its inner
    loop; with one entry per row the rows' axis would be the inner loop,
    which numpy sums pairwise, so they are accumulated, from the first row,
    instead."""
    if x.shape[-1] == 1:
        return np.add.accumulate(x, axis=-2)[..., -1, :] + 0.0
    return x.sum(axis=-2)
