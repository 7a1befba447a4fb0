"""Run configuration files: YAML with fixed sections, unknown keys rejected."""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .numerics import ConfigError
from .model import ModelConfig, from_fields
from .objective import LossWeights, SgdConfig
from .data import SyntheticTask


@dataclass
class TrainSettings:
    steps: int = 100
    batch_size: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1 or self.seed < 0:
            raise ConfigError("train needs steps >= 1, batch_size >= 1 "
                              "and seed >= 0")


@dataclass
class RunConfig:
    model: ModelConfig
    loss: LossWeights
    optimizer: SgdConfig
    task: SyntheticTask
    train: TrainSettings


_SECTIONS = {
    "model": ModelConfig,
    "loss": LossWeights,
    "optimizer": SgdConfig,
    "task": SyntheticTask,
    "train": TrainSettings,
}


def _build(section: str, cls, data):
    if not isinstance(data, dict):
        raise ConfigError(f"section [{section}] must be a mapping")
    try:
        return from_fields(cls, data)
    except ConfigError as e:
        raise ConfigError(f"section [{section}]: {e}") from e


def check_task_fits(task: SyntheticTask, model: ModelConfig) -> None:
    """Reject a task whose tokens or length the model cannot embed."""
    if task.vocab_size > model.vocab_size:
        raise ConfigError(f"task vocab_size {task.vocab_size} exceeds the "
                          f"model's {model.vocab_size}")
    if task.seq_len > model.max_seq_len:
        raise ConfigError(f"task seq_len {task.seq_len} exceeds the "
                          f"model's max_seq_len {model.max_seq_len}")


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except (yaml.YAMLError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot parse {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    if "model" not in raw or "task" not in raw:
        raise ConfigError("config requires [model] and [task] sections")
    built = {}
    for name, cls in _SECTIONS.items():
        built[name] = _build(name, cls, raw.get(name, {}) or {})
    check_task_fits(built["task"], built["model"])
    return RunConfig(**built)
