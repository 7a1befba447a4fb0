"""Block and stack composition: norm -> {attention, memory read,
correction} -> fuse -> residual + FFN (optionally routed) -> heads. One
block serves teacher forcing and incremental decode."""

from __future__ import annotations

import ast
import math
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .numerics import (
    Tensor, ParameterStore, NumericsError, ConfigError, check_finite, rmsnorm,
    concat, linear, straight_through, _accum, _op, _unbroadcast, affine,
    affine_vjp,
)
from .attention import local_attention, latent_attention
from .memory import MemoryState, fast_update, memory_read, slow_write
from .correction import (predict_init, refine_step, mismatch_sq,
                         masked_estimate)
from .controller import (ControllerParams, causal_mask_bits, empty_prefix,
                         ratio_raw_init)
from .mhc import MAX_EXTRA_PASSES, mhc_route, route_gain


# The most float64 parameter values a config may ask for (2 GiB): the
# paper's 158M fit, and a size past it is refused before init_params
# allocates anything.
MAX_PARAMS = 2**28

# Literal types accepted for each config field annotation.
_LITERAL_TYPES = {
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "str": (str,),
    "int | None": (int, type(None)),
}


def from_fields(cls, values: dict):
    """The dataclass `cls` built from `values`. Raise ConfigError unless
    every key names a field, every value is a literal of that field's
    annotated type no larger than the largest float, and no required
    field is missing. Config text and YAML both parse `2.0` where an int
    belongs; caught here, it never reaches a slice or a loop bound."""
    types = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        if type(value) not in _LITERAL_TYPES[types[key]]:
            raise ConfigError(f"config key {key!r} expects {types[key]}, "
                              f"got {value!r}")
        if type(value) is int and abs(value) > sys.float_info.max:
            raise ConfigError(f"config key {key!r} is larger than any float")
    try:
        return cls(**values)
    except TypeError as e:  # a required field is missing
        raise ConfigError(str(e)) from e


def parse_fields(cls, text: str):
    """The dataclass `cls` from `k=v` entries separated by commas or
    newlines. A value is read as a Python literal; one that is not a
    literal is kept as the bare string, so `kind=copy` is 'copy'."""
    values = {}
    for part in text.replace("\n", ",").split(","):
        if part.strip():
            key, _, value = map(str.strip, part.partition("="))
            try:
                values[key] = ast.literal_eval(value)
            except (ValueError, TypeError, SyntaxError, RecursionError,
                    MemoryError):
                values[key] = value
    return from_fields(cls, values)


@dataclass
class ModelConfig:
    vocab_size: int
    width: int
    layers: int
    window: int = 8
    heads: int = 4
    chunk_size: int = 64
    s_ref: int = 2
    alpha_n: float = 0.5
    ratio_min: float = 0.05
    ratio_max: float = 0.95
    ratio_init: float = 0.25
    adaptive_ratio: bool = True
    temperature: float = 1.0
    mhc_streams: int = 4
    sinkhorn_iters: int = 20
    slow_memory: bool = True
    predictive_coding: bool = True
    ont: bool = True
    stop_head: bool = True
    mhc: bool = True
    max_seq_len: int = 256
    latent_dim: int | None = None
    rmsnorm_eps: float = 1e-6

    def __post_init__(self):
        if (self.layers < 0 or self.width < 1 or self.vocab_size < 2
                or self.heads < 1 or self.max_seq_len < 1):
            raise ConfigError("invalid model dimensions")
        if self.width % self.heads != 0:
            raise ConfigError("width must be divisible by head count")
        if self.chunk_size < 1 or self.window < 1:
            raise ConfigError("chunk_size and window must be positive")
        if not (0 <= self.s_ref <= 8):
            raise ConfigError("s_ref must lie in 0..8")
        if not 0.0 <= self.alpha_n < math.inf:
            raise ConfigError("alpha_n must be finite and >= 0 for model use")
        if not (0.0 < self.ratio_min < self.ratio_init < self.ratio_max <= 1.0):
            raise ConfigError("ratios must satisfy "
                              "0 < ratio_min < ratio_init < ratio_max <= 1")
        if not 0.0 < self.temperature < math.inf:
            raise ConfigError("temperature must be finite and positive")
        if not 0.0 < self.rmsnorm_eps < math.inf:
            raise ConfigError("rmsnorm_eps must be finite and positive")
        # Sinkhorn keeps each pass for its backward: the cap bounds memory.
        if self.mhc_streams < 2 or not 1 <= self.sinkhorn_iters <= MAX_EXTRA_PASSES:
            raise ConfigError("mhc needs mhc_streams >= 2 and sinkhorn_iters "
                              f"in 1..{MAX_EXTRA_PASSES}")
        if self.latent_dim is not None and self.latent_dim < 1:
            raise ConfigError("latent_dim must be >= 1")
        count = self.param_count()
        if count > MAX_PARAMS:
            raise ConfigError(f"config asks for {count} parameters, "
                              f"more than {MAX_PARAMS}")

    def param_count(self) -> int:
        """The number of float64 values that init_params allocates: the
        table's entries outside the blocks plus `layers` times one
        block's, so counting costs the same at any depth."""
        outer, one = (sum(math.prod(shape) for _, shape, _, _ in
                          param_specs(self, layers)) for layers in (0, 1))
        return outer + self.layers * (one - outer)

    def to_canonical(self) -> str:
        lines = []
        for f in fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_canonical(cls, text: str) -> "ModelConfig":
        return parse_fields(cls, text)


@dataclass
class LayerAux:
    """What a layer's span leaves for the losses. A batch has one row per
    sequence in each tensor and one density per sequence."""
    error_norms: Tensor
    error_sq: Tensor | None
    effective_ratio: float | np.ndarray
    sparse_ratio_st: Tensor
    fast_final: Tensor
    slow_final: Tensor
    write_count: int


@dataclass
class Logits:
    lm: Tensor
    stop: Tensor | None


def param_specs(cfg: ModelConfig, layers: int | None = None) -> list[tuple]:
    """The parameter table: (name, shape, init, trainable) per tensor, in
    store order, for the enabled mechanisms. `init` is a constant, or
    ("normal", c), a standard normal draw divided by c. `layers` stands in
    for cfg.layers, so a count reads one block."""
    d, v, s, k = cfg.width, cfg.vocab_size, cfg.mhc_streams, cfg.latent_dim
    specs = []

    def add(name, shape, init=0.0, trainable=True):
        specs.append((name, shape, init, trainable))

    def mat(name, fan_in, fan_out):
        add(name, (fan_in, fan_out), ("normal", np.sqrt(fan_in)))

    def vec(name, n, value=0.0):
        add(name, (n,), value)

    add("embed.tok", (v, d), ("normal", 2.0))
    add("embed.pos", (cfg.max_seq_len, d), ("normal", 2.0))
    for l in range(cfg.layers if layers is None else layers):
        p = f"layers.{l}."
        vec(p + "norm1.gain", d, 1.0)
        if k is not None:
            mat(p + "attn.w_q", d, d); vec(p + "attn.b_q", d)
            mat(p + "attn.w_z", d, k); vec(p + "attn.b_z", k)
            mat(p + "attn.w_k_up", k, d); vec(p + "attn.b_k_up", d)
            mat(p + "attn.w_v_up", k, d); vec(p + "attn.b_v_up", d)
        else:
            mat(p + "attn.w_qkv", d, 3 * d); vec(p + "attn.b_qkv", 3 * d)
        mat(p + "attn.w_o", d, d); vec(p + "attn.b_o", d)
        for gate in ("w_d", "w_u", "w_qf", "w_qs"):
            mat(p + "mem." + gate, d, d)
        for gate in ("b_d", "b_u", "b_qf", "b_qs"):
            vec(p + "mem." + gate, d)
        mat(p + "mem.w_r", 2 * d, d); vec(p + "mem.b_r", d)
        if cfg.slow_memory:
            mat(p + "mem.w_g", d, d); vec(p + "mem.b_g", d)
            mat(p + "mem.w_c", d, d); vec(p + "mem.b_c", d)
        if cfg.predictive_coding:
            mat(p + "pred.w1", 2 * d, d); vec(p + "pred.b1", d)
            mat(p + "pred.w2", d, d); vec(p + "pred.b2", d)
            mat(p + "refine.w1", 3 * d, d); vec(p + "refine.b1", d)
            mat(p + "refine.w2", d, d); vec(p + "refine.b2", d)
        add(p + "ctrl.scale", (), 1.0)
        add(p + "ctrl.ratio_raw", (),
            ratio_raw_init(cfg.ratio_init, cfg.ratio_min, cfg.ratio_max),
            trainable=cfg.adaptive_ratio)
        if cfg.mhc:
            vec(p + "mhc.pre", s, 1.0)
            vec(p + "mhc.post", s, 1.0 / s)
            add(p + "mhc.logits", (s, s))
        mat(p + "fuse.w", 3 * d, d); vec(p + "fuse.b", d)
        vec(p + "norm2.gain", d, 1.0)
        mat(p + "ffn.w1", d, 4 * d); vec(p + "ffn.b1", 4 * d)
        mat(p + "ffn.w2", 4 * d, d); vec(p + "ffn.b2", d)
    vec("final_norm.gain", d, 1.0)
    mat("lm_head.w", d, v); vec("lm_head.b", v)
    if cfg.stop_head:
        add("stop_head.w", (d,), ("normal", np.sqrt(d)))
        add("stop_head.b", ())
    return specs


def init_params(cfg: ModelConfig, seed: int = 0) -> ParameterStore:
    """A fresh parameter store, drawn from the table in table order."""
    rng = np.random.default_rng(seed)
    params = ParameterStore()
    for name, shape, init, trainable in param_specs(cfg):
        value = (rng.standard_normal(shape) / init[1]
                 if isinstance(init, tuple) else np.full(shape, init))
        params.add(name, value, trainable)
    return params


def controller_params(params: ParameterStore, cfg: ModelConfig, prefix: str) -> ControllerParams:
    return ControllerParams(
        scale=params[prefix + "ctrl.scale"],
        temperature=cfg.temperature,
        ratio_raw=params[prefix + "ctrl.ratio_raw"],
        ratio_min=cfg.ratio_min,
        ratio_max=cfg.ratio_max,
    )


@dataclass
class LayerCache:
    """What a layer's next span reads of the tokens before it. Teacher
    forcing runs one span, or one batch of spans, from a fresh cache;
    decode prefills the prompt as one span, then runs one-token spans on
    the carried cache. A batch's cache has a leading batch axis on each
    array."""
    history: Tensor | None  # the last <= window post-norm rows, [<=window, d]
    memory: MemoryState  # only the memory functions read and advance it
    # The controller's carried prefix of the mismatch norms
    # (controller.empty_prefix): only the controller reads and advances it.
    prefix: tuple
    # mHC gain, set by the first span; parameters are frozen while a
    # cache is carried.
    route_gain: Tensor | None = None

    @classmethod
    def fresh(cls, cfg: ModelConfig, batch: tuple = ()) -> "LayerCache":
        """The cache of no tokens, for one sequence or, with `batch` =
        (B,), for B sequences."""
        return cls(history=None, memory=MemoryState.fresh(batch + (cfg.width,)),
                   prefix=empty_prefix(batch))


def fuse(h: Tensor, parts: tuple, w: Tensor, b: Tensor) -> Tensor:
    """The residual h + linear(concat(parts, axis=-1), w, b), as one tape
    node. The backward takes h's share, then the linear's, then splits
    the rows' gradient among the parts in order."""
    x = np.concatenate([t.data for t in parts], axis=-1)
    y = affine(x, w.data, b.data)
    def bw(g):
        _accum(h, g)
        g_x = affine_vjp(g, x, w, b, y)
        ends = np.cumsum([t.shape[-1] for t in parts])[:-1]
        for t, g_t in zip(parts, np.split(g_x, ends, axis=-1)):
            _accum(t, g_t)
    # The tape visits inputs last first: b, w, the parts from the last,
    # then h, as it visits the sum's, the linear's and the concat's.
    return _op(h.data + y, (h, *parts, w, b), bw)


def block_forward(h: Tensor, layer: int, params: ParameterStore,
                  cfg: ModelConfig, soft_mask: bool = False,
                  cache: LayerCache | None = None) -> tuple[Tensor, LayerAux]:
    """One LPC-SM block over a span of T rows, [T, d], or a batch of
    spans, [B, T, d]; returns (hidden, aux).

    The span continues the tokens summarised in `cache`, which is advanced
    in place past the span; without one, the span starts the sequence.
    """
    p = f"layers.{layer}."
    cache = LayerCache.fresh(cfg, h.shape[:-2]) if cache is None else cache
    try:
        n = rmsnorm(h, params[p + "norm1.gain"], cfg.rmsnorm_eps)

        # The span's queries attend over the history and the span.
        attend = local_attention if cfg.latent_dim is None else latent_attention
        rows = n if cache.history is None else concat([cache.history, n], axis=-2)
        a = attend(n, rows, cfg.window, cfg.heads, params, p + "attn.")
        cache.history = rows[..., -cfg.window:, :]

        # Memory pathway over the whole span: one scan gives the fast
        # states, one node all slow writes, then each row reads both.
        mem, memory = p + "mem.", cache.memory
        fast = fast_update(n, memory.fast, params, mem)
        memory.fast = fast[..., -1, :]
        slow, writes = memory.slow, 0
        if cfg.slow_memory:
            slow, writes = slow_write(fast, n, memory, cfg.chunk_size,
                                      cfg.alpha_n, cfg.ont, params, mem)
        r = memory_read(n, fast, slow, params, mem)

        # Predictive correction over the whole batch of positions.
        if cfg.predictive_coding:
            est = predict_init(a, r, params, p + "pred.")
            for _ in range(cfg.s_ref):
                est = refine_step(a, r, n, est, params, p + "refine.")
            err_sq = mismatch_sq(n, est)
            error_norms = err_sq.sqrt()
        else:
            est = None
            err_sq = None
            error_norms = Tensor(np.zeros(h.shape[:-1]))

        cp = controller_params(params, cfg, p)
        hard_bits, soft_bits, ratio_t = causal_mask_bits(error_norms, cp,
                                                         cache.prefix)
        mask = soft_bits if soft_mask else hard_bits
        hard = hard_bits.data  # one density per sequence
        density = np.add.reduce(hard, axis=-1) / hard.shape[-1]
        if soft_mask:
            sparse_ratio_st = ratio_t
        else:
            # Straight-through ratio: forward value is the observed mask
            # density, backward flows into the bounded learnable ratio.
            sparse_ratio_st = straight_through(density, ratio_t)

        if cfg.predictive_coding:
            corrected = masked_estimate(mask, est)
        else:
            corrected = Tensor(np.zeros(h.shape))

        resid = fuse(h, (a, r, corrected), params[p + "fuse.w"],
                     params[p + "fuse.b"])
        n2 = rmsnorm(resid, params[p + "norm2.gain"], cfg.rmsnorm_eps)
        ffn = linear(n2, params[p + "ffn.w1"], params[p + "ffn.b1"], "tanh")
        update = linear(ffn, params[p + "ffn.w2"], params[p + "ffn.b2"])

        if cfg.mhc:
            if cache.route_gain is None:
                cache.route_gain = route_gain(
                    params[p + "mhc.pre"], params[p + "mhc.post"],
                    params[p + "mhc.logits"], cfg.sinkhorn_iters)
            out = mhc_route(resid, update, cache.route_gain)
        else:
            out = resid + update
        check_finite(out.data, "block output")
    except NumericsError as e:
        raise NumericsError(f"layer {layer}: {e}") from e

    aux = LayerAux(
        error_norms=error_norms,
        error_sq=err_sq,
        effective_ratio=density,
        sparse_ratio_st=sparse_ratio_st,
        fast_final=cache.memory.fast,
        slow_final=cache.memory.slow,
        write_count=writes,
    )
    return out, aux


def token_ids(tokens, cfg: ModelConfig) -> np.ndarray:
    """`tokens` as a [T] or [B, T] integer array. Raise ConfigError unless
    every id is a Python or numpy int (not a bool) in [0, vocab_size): a
    float or str is refused, not truncated or parsed."""
    ids = np.asarray(tokens)
    if ids.ndim not in (1, 2) or ids.size < 1:
        raise NumericsError("tokens must be a nonempty 1-D sequence "
                            "or 2-D batch")
    # asarray turns a bool among ints into an int, so a sequence is looked
    # through for one, and each id's range checked on the way; an array's
    # dtype already tells.
    v = cfg.vocab_size
    if ids.dtype.kind not in "iu" or (
            (ids.min() < 0 or ids.max() >= v) if isinstance(tokens, np.ndarray)
            else any(isinstance(t, (bool, np.bool_)) or not 0 <= t < v
                     for t in (tokens if ids.ndim == 1 else
                               [t for row in tokens for t in row]))):
        raise ConfigError(f"token ids must be integers in [0, {v})")
    return ids


def embed(tokens, params: ParameterStore, cfg: ModelConfig,
          position_offset: int = 0) -> Tensor:
    """Each token's row of embed.tok plus its position's row of embed.pos,
    as one tape node. The backward sums the rows' gradients into each id's
    row of the table, in position order from +0.0, then their sum over the
    batch into the positions' rows."""
    tokens = token_ids(tokens, cfg)
    t_len = tokens.shape[-1]
    if position_offset + t_len > cfg.max_seq_len:
        raise ConfigError("sequence exceeds max_seq_len")
    tok, pos = params["embed.tok"], params["embed.pos"]
    rows = slice(position_offset, position_offset + t_len)
    def bw(g):
        (v, d), ids = tok.shape, tokens.reshape(-1)
        # bincount adds its weights in order, as np.add.at does.
        _accum(tok, np.bincount((ids[:, None] * d + np.arange(d)).reshape(-1),
                                g.reshape(-1), v * d).reshape(v, d))
        g_pos = np.zeros_like(pos.data)
        g_pos[rows] = _unbroadcast(g, pos.data[rows].shape)
        _accum(pos, g_pos)
    return _op(tok.data[tokens] + pos.data[rows], (tok, pos), bw)


def model_forward(tokens, params: ParameterStore, cfg: ModelConfig,
                  soft_mask: bool = False, caches: list | None = None,
                  position: int = 0) -> tuple[Logits, list[LayerAux]]:
    """Embedding, L blocks, final norm, two heads over a span of tokens.

    A [T] span gives [T, V] LM logits and [T] stop logits; a [B, T] batch
    of equal-length spans gives [B, T, V] and [B, T], in one forward.
    Teacher forcing passes whole sequences. Decode passes the prompt as
    one span, then each new token, with `position` and the per-layer
    `caches` of the tokens before it, which are advanced in place.
    `soft_mask` swaps the straight-through event mask for its soft
    surrogate; used by gradient checks, never by training or decode.
    """
    h = embed(tokens, params, cfg, position_offset=position)
    aux_list = []
    for layer in range(cfg.layers):
        h, aux = block_forward(h, layer, params, cfg, soft_mask=soft_mask,
                               cache=None if caches is None else caches[layer])
        aux_list.append(aux)
    n = rmsnorm(h, params["final_norm.gain"], cfg.rmsnorm_eps)
    lm = linear(n, params["lm_head.w"], params["lm_head.b"])
    check_finite(lm.data, "LM logits")
    stop = None
    if cfg.stop_head:
        stop = linear(n, params["stop_head.w"], params["stop_head.b"])
        check_finite(stop.data, "stop logits")
    return Logits(lm=lm, stop=stop), aux_list


def ablation_variants(cfg: ModelConfig) -> dict[str, ModelConfig]:
    """The five single-mechanism ablations of the full configuration."""
    return {
        "w/o slow memory": replace(cfg, slow_memory=False),
        "w/o predictive coding": replace(cfg, predictive_coding=False),
        "w/o ONT": replace(cfg, ont=False),
        "w/o stop head": replace(cfg, stop_head=False),
        "w/o mHC": replace(cfg, mhc=False),
    }
