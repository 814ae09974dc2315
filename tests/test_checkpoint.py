import dataclasses
import struct
from pathlib import Path

import numpy as np
import pytest

from mlpmod.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from mlpmod.mlp import MlpArchitecture, MlpModel, init_model


@pytest.fixture
def model():
    arch = MlpArchitecture(
        layer_widths=(6, 5, 4), activation="sigmoid", dropout_rate=0.5
    )
    return init_model(arch, np.random.default_rng(0))


def test_round_trip_is_bit_exact(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.architecture == model.architecture
    for w_a, w_b in zip(model.weights, loaded.weights):
        np.testing.assert_array_equal(w_a, w_b)
    for b_a, b_b in zip(model.biases, loaded.biases):
        np.testing.assert_array_equal(b_a, b_b)
    # and the bytes themselves survive a second round
    save_checkpoint(loaded, tmp_path / "again.mlpc")
    assert (tmp_path / "again.mlpc").read_bytes() == path.read_bytes()


def test_model_from_separate_arrays_owns_one_buffer(tmp_path):
    # built the way the benchmark builds its planted model
    rng = np.random.default_rng(1)
    widths = (6, 5, 4)
    weights = [rng.standard_normal((o, i)) for i, o in zip(widths[:-1], widths[1:])]
    biases = [rng.standard_normal(o) for o in widths[1:]]
    model = MlpModel(
        architecture=MlpArchitecture(layer_widths=widths), weights=weights, biases=biases
    )
    for given, view in zip(weights + biases, model.weights + model.biases):
        np.testing.assert_array_equal(view, given)
        assert view.base is model.params
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    header = MAGIC + struct.pack("<II3IId", FORMAT_VERSION, 3, *widths, 0, 0.0)
    body = b"".join(a.astype("<f8").tobytes() for pair in zip(weights, biases) for a in pair)
    assert path.read_bytes() == header + body
    # in-place edits reach the buffer; rebinding the views away from it cannot
    model.weights[1][0, 0] = 7.0
    assert model.params[6 * 5 + 5] == 7.0  # W1 follows W0 (5x6) and b0 (5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.weights = []


def test_header_layout(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    version, n_layers = struct.unpack("<II", raw[4:12])
    assert version == FORMAT_VERSION
    assert n_layers == 3
    widths = struct.unpack("<3I", raw[12:24])
    assert widths == (6, 5, 4)
    activation_tag, = struct.unpack("<I", raw[24:28])
    assert activation_tag == 1  # sigmoid
    dropout, = struct.unpack("<d", raw[28:36])
    assert dropout == 0.5


def test_bad_magic_rejected(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_bad_version_rejected(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_rejected(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_unknown_activation_tag_rejected(model, tmp_path):
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    raw = bytearray(path.read_bytes())
    raw[24:28] = struct.pack("<I", 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="activation tag"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_parameters_rejected(model, tmp_path, bad):
    model.weights[1][2, 3] = bad
    model.biases[0][1] = -bad
    path = tmp_path / "model.mlpc"
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="non-finite .* parameters W1, b0$"):
        load_checkpoint(path)


def test_interrupted_write_leaves_no_file(model, tmp_path, monkeypatch):
    path = tmp_path / "model.mlpc"
    real_write_bytes = Path.write_bytes

    def write_half_then_fail(self, data):
        real_write_bytes(self, data[: len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", write_half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, path)
    assert list(tmp_path.iterdir()) == []
