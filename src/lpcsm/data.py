"""Synthetic tasks: copy and delayed key-recall, plus the probe prompts.

Token 0 is EOS, token 1 is the delimiter/trigger symbol; payload tokens
are drawn from [2, vocab_size).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import ConfigError

EOS = 0
DELIM = 1


@dataclass
class SyntheticTask:
    kind: str  # "copy" or "key-recall"
    vocab_size: int
    seq_len: int
    key_len: int
    distractor_len: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("copy", "key-recall"):
            raise ConfigError(f"unknown task kind {self.kind!r}")
        if self.vocab_size < 3 or self.key_len < 1:
            raise ConfigError("task needs vocab >= 3 and key_len >= 1")
        if self.seq_len < 1 or self.distractor_len < 0 or self.seed < 0:
            raise ConfigError("task needs seq_len >= 1, distractor_len >= 0 "
                              "and seed >= 0")
        if (self.kind == "key-recall"
                and 2 * self.key_len + self.distractor_len + 1 > self.seq_len):
            raise ConfigError("key-recall layout exceeds seq_len")


def _copy_sequence(task: SyntheticTask, rng) -> np.ndarray:
    key = rng.integers(2, task.vocab_size, size=task.key_len)
    pattern = np.concatenate([key, [DELIM]])
    reps = int(np.ceil(task.seq_len / pattern.size))
    return np.tile(pattern, reps)[:task.seq_len]


def _recall_sequence(task: SyntheticTask, rng) -> np.ndarray:
    key = rng.integers(2, task.vocab_size, size=task.key_len)
    distractor = rng.integers(2, task.vocab_size, size=task.distractor_len)
    seq = np.concatenate([key, distractor, [DELIM], key])
    pad = np.full(task.seq_len - seq.size, EOS)
    return np.concatenate([seq, pad])


def make_batch(task: SyntheticTask, batch: int,
               index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic batch of (inputs, next-token targets), both [B, T].

    Targets are the inputs shifted left by one with an EOS-padded tail.
    """
    rng = np.random.default_rng([task.seed, index])
    gen = _copy_sequence if task.kind == "copy" else _recall_sequence
    inputs = np.stack([gen(task, rng) for _ in range(batch)])
    targets = np.concatenate(
        [inputs[:, 1:], np.full((batch, 1), EOS)], axis=1
    )
    return inputs.astype(np.int64), targets.astype(np.int64)


def recall_key_slice(task: SyntheticTask) -> slice:
    """Positions whose next-token targets are the delayed key."""
    trigger_pos = task.key_len + task.distractor_len
    return slice(trigger_pos, trigger_pos + task.key_len)
