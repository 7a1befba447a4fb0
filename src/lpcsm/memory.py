"""Dual-timescale memory: tokenwise fast state, gated dual read, and
chunk-boundary slow writes transported through the novelty geometry.

The fast and read functions take one token's row or a [T, d] span of
them; a span's fast states come from one `gated_scan`."""

from __future__ import annotations

from .numerics import Tensor, ParameterStore, concat, gated_scan, linear
from .ont import ont_transport


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


def slow_write(h_boundary: Tensor, c: Tensor, slow: Tensor,
               alpha_n: float, ont_enabled: bool, params: ParameterStore,
               prefix: str = "mem.") -> Tensor:
    """Gated write of the (optionally transported) chunk summary `c`, the
    mean fast state of the chunk."""
    if ont_enabled and alpha_n != 0.0:
        c_star = ont_transport(alpha_n, c, slow)
    else:
        # alpha = 0 transport is the identity for any reference; skipping it
        # keeps the backward graph identical to the disabled path.
        c_star = c
    g = linear(h_boundary, params[prefix + "w_g"], params[prefix + "b_g"]).sigmoid()
    u = linear(c_star, params[prefix + "w_c"], params[prefix + "b_c"]).tanh()
    return g * slow + (1.0 - g) * u
