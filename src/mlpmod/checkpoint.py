"""Binary model checkpoints.

Layout (all integers little-endian):

    bytes 0..3    magic b"MLPC"
    u32           format version (currently 1)
    u32           number of layers L (input and output included)
    u32 * L       layer widths
    u32           activation tag (0 = relu, 1 = sigmoid)
    f64           dropout rate
    then per connection t = 0..L-2:
        f64 * widths[t+1]*widths[t]   weight matrix, row-major
        f64 * widths[t+1]             bias vector

The parameters are a model's ``params`` buffer, written as is.
Loading rejects non-finite parameters. Round-trips are bit-exact. Writes go
through :func:`write_atomic`, which every output file of the package shares,
so an interrupted write never leaves a truncated checkpoint at the target
path; :func:`write_json` is the one JSON writer on top of it.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .mlp import MlpArchitecture, MlpModel, _param_views

__all__ = [
    "CheckpointError",
    "MAGIC",
    "FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "write_atomic",
    "write_json",
]

MAGIC = b"MLPC"
FORMAT_VERSION = 1

_ACTIVATION_TAGS = {"relu": 0, "sigmoid": 1}
_TAG_ACTIVATIONS = {v: k for k, v in _ACTIVATION_TAGS.items()}


class CheckpointError(Exception):
    """Checkpoint file is malformed, has the wrong magic/version or holds
    non-finite parameters."""


def save_checkpoint(model: MlpModel, path) -> None:
    arch = model.architecture
    widths = arch.layer_widths
    header = MAGIC + struct.pack(
        f"<II{len(widths)}IId",
        FORMAT_VERSION,
        len(widths),
        *widths,
        _ACTIVATION_TAGS[arch.activation],
        arch.dropout_rate,
    )
    write_atomic(path, header, np.ascontiguousarray(model.params, dtype="<f8"))


def write_atomic(path, *parts) -> None:
    """Write ``parts`` (bytes, or C-contiguous arrays written from their own
    buffers) in order to a temporary file beside ``path`` that then replaces
    it, so an interrupted write never leaves a truncated file at ``path``.
    The temporary is removed when anything fails."""
    tmp = Path(str(path) + ".tmp")
    try:
        with tmp.open("wb") as f:
            f.writelines(parts)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):  # the first failure is the one to report
            tmp.unlink()
        raise


def write_json(path, obj) -> None:
    """Write ``obj`` as indented JSON with sorted keys through :func:`write_atomic`."""
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _unpack(fmt: str, data: bytes, offset: int, path) -> tuple:
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error:
        raise CheckpointError(
            f"{path}: truncated checkpoint (header needs "
            f"{offset + struct.calcsize(fmt)} bytes, file has {len(data)})"
        ) from None


def load_checkpoint(path) -> MlpModel:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a model checkpoint")
    version, n_layers = _unpack("<II", data, 4, path)
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    if not 2 <= n_layers <= 1024:
        raise CheckpointError(f"{path}: implausible layer count {n_layers}")
    layout = f"<{n_layers}IId"
    *widths, tag, dropout = _unpack(layout, data, 12, path)
    if tag not in _TAG_ACTIVATIONS:
        raise CheckpointError(f"{path}: unknown activation tag {tag}")
    try:
        arch = MlpArchitecture(
            layer_widths=widths,
            activation=_TAG_ACTIVATIONS[tag],
            dropout_rate=dropout,
        )
    except ValueError as e:
        raise CheckpointError(f"{path}: invalid architecture: {e}") from e
    offset = 12 + struct.calcsize(layout)
    n_params = sum(o * i + o for i, o in zip(widths[:-1], widths[1:]))
    expected = offset + 8 * n_params
    if len(data) < expected:
        raise CheckpointError(
            f"{path}: truncated checkpoint (widths {tuple(widths)} need "
            f"{expected} bytes, file has {len(data)})"
        )
    if len(data) > expected:
        raise CheckpointError(f"{path}: {len(data) - expected} unexpected trailing bytes")
    flat = np.frombuffer(data, dtype="<f8", count=n_params, offset=offset)
    weights, biases = _param_views(arch.layer_widths, flat)
    if not np.isfinite(flat).all():
        bad = [
            f"{name}{t}"
            for name, arrays in (("W", weights), ("b", biases))
            for t, a in enumerate(arrays)
            if not np.isfinite(a).all()
        ]
        raise CheckpointError(
            f"{path}: non-finite (NaN or inf) values in parameters {', '.join(bad)}"
        )
    return MlpModel(architecture=arch, weights=weights, biases=biases)
