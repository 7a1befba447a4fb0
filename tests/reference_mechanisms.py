"""The block's mechanisms and the glue between them as chains of Tensor
ops, kept as the reference that the one-node forms in `lpcsm.attention`,
`lpcsm.memory`, `lpcsm.correction`, `lpcsm.mhc` and `lpcsm.model` are
tested against.

Each function composes `linear`, `concat`, slices, Tensor arithmetic and
the ops of `reference_ops` as the model did before each call became one
tape node; `attend_node` and
`scan_node` put the array kernels `_attend` and `gated_scan` on the tape
as one node each, as they were. The one-node forms must give the same
value and the same bytes in every gradient."""

from __future__ import annotations

from lpcsm.attention import _attend
from lpcsm.model import ModelConfig, token_ids
from lpcsm.numerics import (Tensor, ParameterStore, NumericsError, ConfigError,
                            _accum, _op, _wrap, concat, gated_scan,
                            gated_scan_vjp, linear)

from reference_ops import reshape, sub


def attend_node(q: Tensor, k: Tensor, v: Tensor, window: int,
                heads: int) -> Tensor:
    """`_attend` as one tape node over Tensors."""
    out, vjp = _attend(q.data, k.data, v.data, window, heads)
    def bw(g):
        for t, g_t in zip((q, k, v), vjp(g)):
            _accum(t, g_t)
    return _op(out, (q, k, v), bw)


def scan_node(decay: Tensor, write: Tensor, init: Tensor) -> Tensor:
    """`gated_scan` as one tape node over Tensors (or arrays)."""
    a, b, f0 = _wrap(decay), _wrap(write), _wrap(init)
    rows = gated_scan(a.data, b.data, f0.data)
    def bw(g):
        for t, g_t in zip((a, b, f0), gated_scan_vjp(g, a.data, rows, f0.data)):
            _accum(t, g_t)
    return _op(rows, (a, b, f0), bw)


def local_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                    params: ParameterStore, prefix: str = "attn.") -> Tensor:
    d = hidden.shape[-1]
    qkv = linear(rows, params[prefix + "w_qkv"], params[prefix + "b_qkv"])
    q = qkv[..., -hidden.shape[-2]:, 0:d]
    k, v = qkv[..., d:2 * d], qkv[..., 2 * d:3 * d]
    return linear(attend_node(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])


def latent_attention(hidden: Tensor, rows: Tensor, window: int, heads: int,
                     params: ParameterStore, prefix: str = "attn.") -> Tensor:
    q = linear(hidden, params[prefix + "w_q"], params[prefix + "b_q"])
    z = linear(rows, params[prefix + "w_z"], params[prefix + "b_z"])
    k = linear(z, params[prefix + "w_k_up"], params[prefix + "b_k_up"])
    v = linear(z, params[prefix + "w_v_up"], params[prefix + "b_v_up"])
    return linear(attend_node(q, k, v, window, heads), params[prefix + "w_o"],
                  params[prefix + "b_o"])


def fast_update(h: Tensor, prev: Tensor, params: ParameterStore,
                prefix: str = "mem.") -> Tensor:
    d = linear(h, params[prefix + "w_d"], params[prefix + "b_d"], "sigmoid")
    u = linear(h, params[prefix + "w_u"], params[prefix + "b_u"], "tanh")
    return scan_node(d, sub(1.0, d) * u, prev)


def memory_read(h: Tensor, fast: Tensor, slow: Tensor,
                params: ParameterStore, prefix: str = "mem.") -> Tensor:
    qf = linear(h, params[prefix + "w_qf"], params[prefix + "b_qf"], "sigmoid")
    qs = linear(h, params[prefix + "w_qs"], params[prefix + "b_qs"], "sigmoid")
    if slow.ndim == h.ndim - 1 > 1:  # one [B, d] state for a whole batch
        slow = reshape(slow, slow.shape[:-1] + (1, slow.shape[-1]))
    gated = concat([qf * fast, qs * slow], axis=-1)
    return linear(gated, params[prefix + "w_r"], params[prefix + "b_r"])


def _mlp(x: Tensor, params: ParameterStore, prefix: str) -> Tensor:
    h = linear(x, params[prefix + "w1"], params[prefix + "b1"], "tanh")
    return linear(h, params[prefix + "w2"], params[prefix + "b2"])


def predict_init(a: Tensor, r: Tensor, params: ParameterStore,
                 prefix: str = "pred.") -> Tensor:
    if a.shape != r.shape:
        raise NumericsError("predict_init width mismatch")
    return _mlp(concat([a, r], axis=-1), params, prefix)


def refine_step(a: Tensor, r: Tensor, h: Tensor, estimate: Tensor,
                params: ParameterStore, prefix: str = "refine.") -> Tensor:
    err = sub(h, estimate)
    return estimate + _mlp(concat([a, r, err], axis=-1), params, prefix)


def mismatch_sq(h: Tensor, estimate: Tensor) -> Tensor:
    diff = sub(h, estimate)
    return (diff * diff).sum(axis=-1)


def masked_estimate(mask: Tensor, estimate: Tensor) -> Tensor:
    return reshape(mask, mask.shape + (1,)) * estimate


def fuse(h: Tensor, parts: tuple, w: Tensor, b: Tensor) -> Tensor:
    return h + linear(concat(list(parts), axis=-1), w, b)


def mhc_route(h_in: Tensor, block_update: Tensor, gain: Tensor) -> Tensor:
    return _wrap(h_in) * gain + _wrap(block_update)


def embed(tokens, params: ParameterStore, cfg: ModelConfig,
          position_offset: int = 0) -> Tensor:
    tokens = token_ids(tokens, cfg)
    t_len = tokens.shape[-1]
    if position_offset + t_len > cfg.max_seq_len:
        raise ConfigError("sequence exceeds max_seq_len")
    tok = params["embed.tok"][tokens]
    pos = params["embed.pos"][position_offset:position_offset + t_len]
    return tok + pos
