"""Dual-timescale memory: tokenwise fast state, gated dual read, and
chunk-boundary slow writes transported through the novelty geometry.

The fast and read functions take one token's row or a [T, d] span of
them; a span's fast states come from one `gated_scan`, and all of its
slow writes, one per chunk boundary, from one `slow_write` node."""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .numerics import (
    Tensor, ParameterStore, _accum, _op, concat, gated_scan, linear,
)
from .ont import transport_array, transport_vjp


def fast_update(h: Tensor, prev: Tensor, params: ParameterStore,
                prefix: str = "mem.") -> Tensor:
    """Gated tokenwise update: d*prev + (1-d)*tanh write. For a [T, d]
    span of rows it returns the [T, d] states after each row."""
    d = linear(h, params[prefix + "w_d"], params[prefix + "b_d"]).sigmoid()
    u = linear(h, params[prefix + "w_u"], params[prefix + "b_u"]).tanh()
    return gated_scan(d, (1.0 - d) * u, prev)


def memory_read(h: Tensor, fast: Tensor, slow: Tensor,
                params: ParameterStore, prefix: str = "mem.") -> Tensor:
    """Separate sigmoid gates query the fast and slow halves, then mix.
    A [T, d] span reads [T, d] fast and slow rows (or one shared state)."""
    qf = linear(h, params[prefix + "w_qf"], params[prefix + "b_qf"]).sigmoid()
    qs = linear(h, params[prefix + "w_qs"], params[prefix + "b_qs"]).sigmoid()
    gated = concat([qf * fast, qs * slow], axis=-1)
    return linear(gated, params[prefix + "w_r"], params[prefix + "b_r"])


def slow_write(fast: Tensor, n: Tensor, ends, chunk_sum: Tensor,
               slow: Tensor, chunk_size: int, alpha_n: float,
               ont_enabled: bool, params: ParameterStore,
               prefix: str = "mem.") -> Tensor:
    """The slow states after each chunk boundary of a span, [K, d].

    `fast` and `n` are the span's [T, d] fast states and normed rows, and
    `ends` the K row counts at which a chunk closes. Chunk k covers rows
    ends[k-1]:ends[k] (from 0 for the first, which also adds the open
    chunk's carried `chunk_sum`); its summary c is the mean fast state of
    the chunk, transported against the slow state when ONT is on. The
    write is g*slow + (1-g)*tanh(c @ w_c + b_c) with the gate
    g = sigmoid(n[end-1] @ w_g + b_g). One tape node: the forward runs the
    writes in numpy and the backward runs their adjoint in reverse order.
    """
    w_g, b_g = params[prefix + "w_g"], params[prefix + "b_g"]
    w_c, b_c = params[prefix + "w_c"], params[prefix + "b_c"]
    # alpha = 0 transport is the identity for any reference; skipping it
    # keeps the backward identical to the disabled path.
    transported = ont_enabled and alpha_n != 0.0
    scale = 1.0 / chunk_size
    k_count, d = len(ends), slow.shape[0]
    starts = [0] + list(ends[:-1])
    # Per write: the slow state before it, the chunk mean, its transport,
    # the gate, the tanh write and the state after it.
    prev, summary, c_star, gate, write, states = np.empty((6, k_count, d))
    carry, state = chunk_sum.data, slow.data
    for k, (start, end) in enumerate(zip(starts, ends)):
        prev[k] = state
        summary[k] = (carry + fast.data[start:end].sum(axis=0)) * scale
        c_star[k] = (transport_array(alpha_n, summary[k], state)
                     if transported else summary[k])
        gate[k] = expit(n.data[end - 1] @ w_g.data + b_g.data)
        write[k] = np.tanh(c_star[k] @ w_c.data + b_c.data)
        state = states[k] = gate[k] * state + (1.0 - gate[k]) * write[k]
        carry = np.zeros(d)
    rows = np.asarray(ends) - 1

    def bw(g):
        # dL/d of the gate's and the write's pre-activations and of the mean
        g_gate, g_write, g_summary = np.empty((3, k_count, d))
        g_fast = np.zeros_like(fast.data)
        g_carry = np.zeros(d)  # dL/dslow from later writes
        for k in range(k_count - 1, -1, -1):
            g_state = g_carry + g[k]
            g_gate[k] = (g_state * (prev[k] - write[k])
                         * gate[k] * (1.0 - gate[k]))
            g_write[k] = (g_state * (1.0 - gate[k])
                          * (1.0 - write[k] * write[k]))
            g_c = w_c.data @ g_write[k]
            g_carry = g_state * gate[k]
            if transported:
                g_c, g_m = transport_vjp(alpha_n, summary[k], prev[k], g_c)
                g_carry = g_carry + g_m
            g_summary[k] = g_c * scale
            g_fast[starts[k]:ends[k]] = g_summary[k]
        g_n = np.zeros_like(n.data)
        g_n[rows] = g_gate @ w_g.data.T
        _accum(fast, g_fast)
        _accum(n, g_n)
        _accum(chunk_sum, g_summary[0])
        _accum(slow, g_carry)
        _accum(w_g, n.data[rows].T @ g_gate)
        _accum(b_g, g_gate.sum(axis=0))
        _accum(w_c, c_star.T @ g_write)
        _accum(b_c, g_write.sum(axis=0))
    return _op(states, (fast, n, chunk_sum, slow, w_g, b_g, w_c, b_c), bw)
