"""Bit-exact binary checkpoints: magic, version, canonical config text,
then named little-endian float64 tensors."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .numerics import ParameterStore, ConfigError, check_finite
from .model import ModelConfig, param_specs

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

        # Each entry is checked against the config's table as it is read;
        # trainable flags come from the table, values from the file.
        specs = param_specs(cfg)
        (count,) = struct.unpack("<I", _read(f, 4))
        if count != len(specs):
            raise CheckpointError(f"checkpoint entries do not match the "
                                  f"config's {len(specs)} parameters")
        params = ParameterStore()
        for expect, expect_shape, _, trainable in specs:
            (name_len,) = struct.unpack("<I", _read(f, 4))
            try:
                name = _read(f, name_len).decode("utf-8")
            except UnicodeDecodeError as e:
                raise CheckpointError(f"tensor name is not UTF-8: {e}") from e
            if name != expect:
                raise CheckpointError(f"entry {name!r} where {expect!r} belongs")
            (rank,) = struct.unpack("<I", _read(f, 4))
            shape = tuple(struct.unpack("<I", _read(f, 4))[0] for _ in range(rank))
            if shape != expect_shape:
                raise CheckpointError(f"shape mismatch for {name!r}")
            data = np.frombuffer(_read(f, 8 * math.prod(shape)),
                                 dtype="<f8").reshape(shape)
            check_finite(data, f"checkpoint tensor {name!r}")
            params.add(name, data, trainable)
        if f.read(1):
            raise CheckpointError("trailing bytes after the last tensor")
    return params, cfg
