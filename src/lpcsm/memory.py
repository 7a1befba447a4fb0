"""Dual-timescale memory: tokenwise fast state, gated dual read, and
chunk-boundary slow writes transported through the novelty geometry.

The fast and read functions take one token's row or a [T, d] span of
them; a span's fast states come from one `gated_scan`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Tensor, ParameterStore, NumericsError, concat, gated_scan
from .ont import ont_transport


@dataclass
class FastState:
    value: Tensor

    @classmethod
    def zeros(cls, width: int) -> "FastState":
        return cls(value=Tensor(np.zeros(width)))


@dataclass
class SlowState:
    value: Tensor
    chunk_index: int = 0

    @classmethod
    def zeros(cls, width: int) -> "SlowState":
        return cls(value=Tensor(np.zeros(width)), chunk_index=0)


@dataclass
class ChunkAccumulator:
    running_sum: Tensor
    count: int
    chunk_size: int

    @classmethod
    def empty(cls, width: int, chunk_size: int) -> "ChunkAccumulator":
        return cls(running_sum=Tensor(np.zeros(width)), count=0, chunk_size=chunk_size)

    def mean(self) -> Tensor:
        if self.count < 1:
            raise NumericsError("chunk mean undefined on empty accumulator")
        return self.running_sum * (1.0 / self.count)


def fast_update(h: Tensor, prev: FastState, params: ParameterStore,
                prefix: str = "mem.") -> FastState:
    """Gated tokenwise update: d*prev + (1-d)*tanh write. For a [T, d]
    span of rows the state holds the [T, d] states after each row."""
    d = (h @ params[prefix + "w_d"] + params[prefix + "b_d"]).sigmoid()
    u = (h @ params[prefix + "w_u"] + params[prefix + "b_u"]).tanh()
    return FastState(value=gated_scan(d, (1.0 - d) * u, prev.value))


def memory_read(h: Tensor, fast: FastState, slow: SlowState,
                params: ParameterStore, prefix: str = "mem.") -> Tensor:
    """Separate sigmoid gates query the fast and slow halves, then mix.
    A [T, d] span reads [T, d] fast and slow rows (or one shared state)."""
    qf = (h @ params[prefix + "w_qf"] + params[prefix + "b_qf"]).sigmoid()
    qs = (h @ params[prefix + "w_qs"] + params[prefix + "b_qs"]).sigmoid()
    gated = concat([qf * fast.value, qs * slow.value], axis=-1)
    return gated @ params[prefix + "w_r"] + params[prefix + "b_r"]


def accumulate(acc: ChunkAccumulator, fast: FastState) -> ChunkAccumulator:
    """Add one fast state, or each row of a [k, d] span of them."""
    v = fast.value
    count = acc.count + (1 if v.ndim == 1 else v.shape[0])
    if count > acc.chunk_size:
        raise NumericsError("accumulating past a full chunk; flush first")
    return ChunkAccumulator(
        running_sum=acc.running_sum + (v if v.ndim == 1 else v.sum(axis=0)),
        count=count,
        chunk_size=acc.chunk_size,
    )


def slow_write(h_boundary: Tensor, acc: ChunkAccumulator, slow: SlowState,
               alpha_n: float, ont_enabled: bool, params: ParameterStore,
               prefix: str = "mem.") -> SlowState:
    """Gated write of the (optionally transported) chunk summary."""
    c = acc.mean()
    if ont_enabled and alpha_n != 0.0:
        c_star = ont_transport(alpha_n, c, slow.value).transported
    else:
        # alpha = 0 transport is the identity for any reference; skipping it
        # keeps the backward graph identical to the disabled path.
        c_star = c
    g = (h_boundary @ params[prefix + "w_g"] + params[prefix + "b_g"]).sigmoid()
    u = (c_star @ params[prefix + "w_c"] + params[prefix + "b_c"]).tanh()
    return SlowState(
        value=g * slow.value + (1.0 - g) * u,
        chunk_index=slow.chunk_index + 1,
    )
