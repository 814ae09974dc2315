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

Round-trips are bit-exact. Writes are atomic: the bytes go to a temporary
file beside the target, which then replaces it, so an interrupted write
never leaves a truncated checkpoint at the target path.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .mlp import MlpArchitecture, MlpModel

__all__ = ["CheckpointError", "MAGIC", "FORMAT_VERSION", "save_checkpoint", "load_checkpoint"]

MAGIC = b"MLPC"
FORMAT_VERSION = 1

_ACTIVATION_TAGS = {"relu": 0, "sigmoid": 1}
_TAG_ACTIVATIONS = {v: k for k, v in _ACTIVATION_TAGS.items()}


class CheckpointError(Exception):
    """Checkpoint file is malformed or has the wrong magic/version."""


def save_checkpoint(model: MlpModel, path) -> None:
    arch = model.architecture
    widths = arch.layer_widths
    parts = [
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<I", len(widths)),
        struct.pack(f"<{len(widths)}I", *widths),
        struct.pack("<I", _ACTIVATION_TAGS[arch.activation]),
        struct.pack("<d", arch.dropout_rate),
    ]
    for w, b in zip(model.weights, model.biases):
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    tmp = Path(str(path) + ".tmp")
    try:
        tmp.write_bytes(b"".join(parts))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError(
                f"{self.path}: truncated checkpoint (needed {n} bytes at "
                f"offset {self.pos}, file has {len(self.data)})"
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def array(self, shape) -> np.ndarray:
        count = int(np.prod(shape))
        raw = self.take(count * 8)
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def load_checkpoint(path) -> MlpModel:
    data = Path(path).read_bytes()
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a model checkpoint")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version} (expected {FORMAT_VERSION})"
        )
    n_layers = r.u32()
    if not 2 <= n_layers <= 1024:
        raise CheckpointError(f"{path}: implausible layer count {n_layers}")
    widths = tuple(r.u32() for _ in range(n_layers))
    tag = r.u32()
    if tag not in _TAG_ACTIVATIONS:
        raise CheckpointError(f"{path}: unknown activation tag {tag}")
    dropout = r.f64()
    try:
        arch = MlpArchitecture(
            layer_widths=widths,
            activation=_TAG_ACTIVATIONS[tag],
            dropout_rate=dropout,
        )
    except ValueError as e:
        raise CheckpointError(f"{path}: invalid architecture: {e}") from e
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(r.array((fan_out, fan_in)))
        biases.append(r.array((fan_out,)))
    if r.pos != len(data):
        raise CheckpointError(
            f"{path}: {len(data) - r.pos} unexpected trailing bytes"
        )
    return MlpModel(architecture=arch, weights=weights, biases=biases)
