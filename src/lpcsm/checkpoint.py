"""Bit-exact binary checkpoints: magic, version, canonical config text,
then named little-endian float64 tensors."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .numerics import ParameterStore, ConfigError, check_finite
from .model import ModelConfig, init_params

MAGIC = b"LPCM"
VERSION = 1


class CheckpointError(Exception):
    pass


def save_checkpoint(params: ParameterStore, cfg: ModelConfig, path: str) -> None:
    cfg_bytes = cfg.to_canonical().encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(cfg_bytes)))
        f.write(cfg_bytes)
        f.write(struct.pack("<I", len(params)))
        for name, t in params.items():
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", t.ndim))
            for dim in t.shape:
                f.write(struct.pack("<I", dim))
            f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def _read(f, n: int) -> bytes:
    """The next n bytes; a size past the end of the file is never read."""
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise CheckpointError("checkpoint file is truncated")
    return f.read(n)


def load_checkpoint(path: str,
                    expect_cfg: ModelConfig | None = None
                    ) -> tuple[ParameterStore, ModelConfig]:
    with open(path, "rb") as f:
        if _read(f, 4) != MAGIC:
            raise CheckpointError("bad magic bytes")
        (version,) = struct.unpack("<I", _read(f, 4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (cfg_len,) = struct.unpack("<I", _read(f, 4))
        try:
            cfg = ModelConfig.from_canonical(_read(f, cfg_len).decode("utf-8"))
        except (UnicodeDecodeError, ConfigError) as e:
            raise CheckpointError(f"corrupt config text: {e}") from e
        if expect_cfg is not None and cfg != expect_cfg:
            raise CheckpointError("checkpoint config does not match expected config")

        (count,) = struct.unpack("<I", _read(f, 4))
        loaded: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read(f, 4))
            try:
                name = _read(f, name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"tensor name is not UTF-8: {e}") from e
            (rank,) = struct.unpack("<I", _read(f, 4))
            shape = tuple(struct.unpack("<I", _read(f, 4))[0] for _ in range(rank))
            data = np.frombuffer(_read(f, 8 * math.prod(shape)),
                                 dtype="<f8").reshape(shape)
            check_finite(data, f"checkpoint tensor {name!r}")
            loaded[name] = data.astype(np.float64)
        if f.read(1):
            raise CheckpointError("trailing bytes after the last tensor")

    # Rebuild the store from the config so names, order, and trainable flags
    # come from the architecture, then overwrite values from the file.
    params = init_params(cfg, seed=0)
    if set(params.names()) != set(loaded):
        raise CheckpointError("checkpoint entries do not match the config's parameters")
    for name, t in params.items():
        if t.shape != loaded[name].shape:
            raise CheckpointError(f"shape mismatch for {name!r}")
        t.data = loaded[name]
    return params, cfg
