from pathlib import Path

import pytest

from mlpmod.data import make_synthetic_dataset
from mlpmod.harness import ExperimentConfig
from mlpmod.mlp import TrainConfig
from mlpmod.spectral import SpectralConfig


@pytest.fixture(scope="session")
def smoke_data_dir(tmp_path_factory):
    """A 20-image synthetic dataset shared by the harness/CLI/acceptance tests."""
    data_dir = tmp_path_factory.mktemp("data")
    make_synthetic_dataset(data_dir, name="smoke", n_train=20, n_test=20, seed=0)
    return data_dir


@pytest.fixture(scope="session")
def full_shape_mnist_dir(tmp_path_factory):
    """Synthetic random data with the real mnist split sizes (60000/10000)."""
    data_dir = tmp_path_factory.mktemp("fulldata")
    make_synthetic_dataset(data_dir, name="mnist", n_train=60000, n_test=10000, seed=0)
    return data_dir


class _HalfThenFail:
    """A binary file whose ``writelines`` writes half the joined bytes, then
    raises ``OSError(message)``."""

    def __init__(self, file, message):
        self.file, self.message = file, message

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()

    def writelines(self, parts):
        data = b"".join(parts)
        self.file.write(data[: len(data) // 2])
        raise OSError(self.message)


def fail_writes_midway(patch, message):
    """Through ``patch`` (a monkeypatch), make every file that ``Path.open``
    opens with mode "wb" fail halfway through its ``writelines``."""
    real_open = Path.open

    def open_failing(self, mode="r", *args, **kwargs):
        file = real_open(self, mode, *args, **kwargs)
        return _HalfThenFail(file, message) if mode == "wb" else file

    patch.setattr(Path, "open", open_failing)


def smoke_config(method="weights", activation="relu", dropout=False, seed=0, k=4):
    return ExperimentConfig(
        dataset="smoke",
        activation=activation,
        dropout=dropout,
        method=method,
        train=TrainConfig(epochs=1, rng_seed=seed),
        spectral=SpectralConfig(k=k, rng_seed=0),
    )
