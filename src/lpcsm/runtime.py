"""Incremental autoregressive decoding: the per-layer caches that carry a
sequence from one span to the next, and greedy generation (the prompt as
one span, then one span per new token)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ParameterStore, ConfigError, NumericsError, no_grad, sigmoid
from .model import ModelConfig, Logits, LayerCache, model_forward, token_ids


@dataclass
class DecodeCache:
    layers: list
    position: int = 0


def init_cache(cfg: ModelConfig) -> DecodeCache:
    return DecodeCache(layers=[LayerCache.fresh(cfg) for _ in range(cfg.layers)])


def step_decode(tokens, cache: DecodeCache, params: ParameterStore,
                cfg: ModelConfig) -> tuple[Logits, DecodeCache]:
    """Run the model on a span of token ids (a bare id is a one-token
    span) that continues the cache; returns the span's last-row logits."""
    tokens = [tokens] if np.ndim(tokens) == 0 else tokens
    with no_grad():
        logits, _ = model_forward(tokens, params, cfg, caches=cache.layers,
                                  position=cache.position)
    cache.position += len(tokens)
    stop = None if logits.stop is None else logits.stop[-1]
    return Logits(lm=logits.lm[-1], stop=stop), cache


def generate(prompt, max_new: int, params: ParameterStore, cfg: ModelConfig,
             eos_token: int | None = None,
             stop_threshold: float | None = None) -> list[int]:
    """Greedy decode; halts at max_new, at EOS, or on the stop head.

    Every argument is checked before the first token is decoded. An EOS
    stop may never come, so the prompt plus max_new must fit max_seq_len."""
    prompt = list(prompt)
    if not prompt:
        raise ConfigError("generate requires a nonempty prompt")
    prompt = token_ids(prompt, cfg)
    if prompt.ndim != 1:
        raise NumericsError("generate takes one 1-D prompt")
    prompt = prompt.tolist()
    if max_new < 0:
        raise ConfigError(f"max_new must be >= 0, got {max_new}")
    if len(prompt) + max_new > cfg.max_seq_len:
        raise ConfigError(f"prompt of {len(prompt)} tokens plus max_new "
                          f"{max_new} exceeds max_seq_len {cfg.max_seq_len}")
    if eos_token is not None and not 0 <= eos_token < cfg.vocab_size:
        raise ConfigError(f"eos_token must lie in [0, {cfg.vocab_size})")
    if stop_threshold is not None and not 0.0 <= stop_threshold <= 1.0:
        raise ConfigError(f"stop_threshold must lie in [0, 1], got {stop_threshold}")
    if stop_threshold is not None and not cfg.stop_head:
        raise ConfigError("stop_threshold needs a model with a stop head")
    logits, cache = step_decode(prompt, init_cache(cfg), params, cfg)
    out = list(prompt)
    for _ in range(max_new):
        nxt = int(np.argmax(logits.lm.data))
        out.append(nxt)
        if eos_token is not None and nxt == eos_token:
            break
        logits, cache = step_decode(nxt, cache, params, cfg)
        if stop_threshold is not None and sigmoid(logits.stop.item()) > stop_threshold:
            break
    return out
