"""IDX-format image/label parsing and dataset assembly.

The IDX container is big-endian: a 4-byte magic (2051 for image files, 2049
for label files), 32-bit dimension sizes, then raw unsigned bytes. Gzipped
files are detected by their two-byte signature and decompressed
transparently. Nothing is ever downloaded; callers point at files on disk.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "IMAGE_SIDE",
    "N_PIXELS",
    "SPLIT_FILES",
    "KNOWN_DATASETS",
    "LabeledImageSet",
    "Dataset",
    "load_idx_images",
    "load_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_split_files",
    "load_splits",
    "load_dataset",
    "make_synthetic_dataset",
]

IMAGE_MAGIC = 0x00000803  # 2051
LABEL_MAGIC = 0x00000801  # 2049
IMAGE_SIDE = 28
N_PIXELS = IMAGE_SIDE * IMAGE_SIDE
N_CLASSES = 10

# canonical file names inside a dataset directory; a ".gz" suffix also works
SPLIT_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}

# split sizes are enforced for these two dataset names
KNOWN_DATASETS = {
    "mnist": {"train": 60000, "test": 10000},
    "fashion_mnist": {"train": 60000, "test": 10000},
}


class DataError(Exception):
    """Missing, malformed or out-of-contract dataset files."""


@dataclass(frozen=True)
class LabeledImageSet:
    """Images as the IDX file's uint8 pixel rows plus integer class labels.

    The pixels take an eighth of the memory of a float64 copy; the model
    scales each batch to [0, 1] as it takes it (``mlp._check_batch``)."""

    images: np.ndarray  # (m, 784) uint8
    labels: np.ndarray  # (m,) int64
    split: str

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.split}: {self.images.shape[0]} images but "
                f"{self.labels.shape[0]} labels"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


@dataclass(frozen=True)
class Dataset:
    name: str
    train: LabeledImageSet
    test: LabeledImageSet


def _read_bytes(path) -> bytes:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except FileNotFoundError as e:
        raise DataError(f"no such file: {path}") from e
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as e:
            raise DataError(f"{path}: corrupt gzip file: {e}") from e
    return raw


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a (count, 784) uint8 array."""
    raw = _read_bytes(path)
    if len(raw) < 16:
        raise DataError(f"{path}: file too short for an IDX image header")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise DataError(
            f"{path}: magic {magic:#010x} is not an IDX image file "
            f"(expected {IMAGE_MAGIC:#010x})"
        )
    if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
        raise DataError(
            f"{path}: image dimensions {rows}x{cols}, expected "
            f"{IMAGE_SIDE}x{IMAGE_SIDE}"
        )
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise DataError(
            f"{path}: expected {expected} bytes for {count} images, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a (count,) uint8 array of classes 0..9."""
    raw = _read_bytes(path)
    if len(raw) < 8:
        raise DataError(f"{path}: file too short for an IDX label header")
    magic, count = struct.unpack(">II", raw[:8])
    if magic != LABEL_MAGIC:
        raise DataError(
            f"{path}: magic {magic:#010x} is not an IDX label file "
            f"(expected {LABEL_MAGIC:#010x})"
        )
    if len(raw) != 8 + count:
        raise DataError(
            f"{path}: expected {8 + count} bytes for {count} labels, got {len(raw)}"
        )
    labels = np.frombuffer(raw, dtype=np.uint8, offset=8)
    if labels.size and labels.max() >= N_CLASSES:
        bad = int(labels.max())
        raise DataError(f"{path}: label {bad} outside 0..{N_CLASSES - 1}")
    return labels


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (m, 784) or (m, 28, 28) uint8 array as an uncompressed IDX
    image file."""
    arr = np.asarray(images, dtype=np.uint8).reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    header = struct.pack(">IIII", IMAGE_MAGIC, arr.shape[0], IMAGE_SIDE, IMAGE_SIDE)
    Path(path).write_bytes(header + arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype=np.uint8).reshape(-1)
    Path(path).write_bytes(struct.pack(">II", LABEL_MAGIC, arr.shape[0]) + arr.tobytes())


def load_split_files(images_path, labels_path, split: str) -> LabeledImageSet:
    """Load one split from explicit image/label paths: the pixels as the
    file holds them (uint8) and the labels as int64."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path).astype(np.int64)
    return LabeledImageSet(images=images, labels=labels, split=split)


def _resolve(directory: Path, base_name: str) -> Path | None:
    for candidate in (directory / base_name, directory / (base_name + ".gz")):
        if candidate.is_file():
            return candidate
    return None


def load_splits(directory, splits) -> dict[str, LabeledImageSet]:
    """Load the named splits from their canonical file names in ``directory``.

    Every missing file is named in one ``DataError`` before anything loads.
    """
    directory = Path(directory)
    paths = {
        split: [_resolve(directory, base) for base in SPLIT_FILES[split]] for split in splits
    }
    missing = [
        f"{directory / base}[.gz]"
        for split in splits
        for base, path in zip(SPLIT_FILES[split], paths[split])
        if path is None
    ]
    if missing:
        raise DataError("missing dataset files: " + ", ".join(missing))
    return {split: load_split_files(*paths[split], split) for split in splits}


def load_dataset(name: str, data_dir) -> Dataset:
    """Load train/test splits from ``<data_dir>/<name>/``.

    For the two known dataset names the split sizes (60000 train / 10000
    test) are enforced; any other name is loaded as-is, which is how the
    synthetic smoke datasets come in.
    """
    directory = Path(data_dir) / name
    splits = load_splits(directory, SPLIT_FILES)
    if name in KNOWN_DATASETS:
        for split, expected in KNOWN_DATASETS[name].items():
            got = len(splits[split])
            if got != expected:
                raise DataError(
                    f"{name} {split} split has {got} examples, expected {expected}"
                )
    return Dataset(name=name, train=splits["train"], test=splits["test"])


def make_synthetic_dataset(
    data_dir,
    name: str = "synthetic",
    n_train: int = 20,
    n_test: int = 20,
    seed: int = 0,
) -> Path:
    """Write a small random IDX dataset under ``<data_dir>/<name>/``.

    Used by the smoke path and the demos; loadable via :func:`load_dataset`
    under the same name. Returns the dataset directory.
    """
    rng = np.random.default_rng(seed)
    directory = Path(data_dir) / name
    directory.mkdir(parents=True, exist_ok=True)
    for split, count in (("train", n_train), ("test", n_test)):
        images = rng.integers(0, 256, size=(count, N_PIXELS), dtype=np.uint8)
        labels = rng.integers(0, N_CLASSES, size=count, dtype=np.uint8)
        images_name, labels_name = SPLIT_FILES[split]
        write_idx_images(directory / images_name, images)
        write_idx_labels(directory / labels_name, labels)
    return directory
