"""IDX-format image/label parsing and dataset assembly.

The IDX container is big-endian: a 4-byte magic (2051 for image files, 2049
for label files), 32-bit dimension sizes, then raw unsigned bytes. Gzipped
files are detected by their two-byte signature and decompressed
transparently. Nothing is ever downloaded; callers point at files on disk.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic

__all__ = [
    "DataError",
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "IMAGE_SIDE",
    "N_PIXELS",
    "SPLIT_FILES",
    "KNOWN_DATASETS",
    "LabeledImageSet",
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

# the paper's datasets, by directory name and the name tables show; their
# split sizes are enforced
KNOWN_DATASETS = {"mnist": "MNIST", "fashion_mnist": "FashionMNIST"}
KNOWN_SPLIT_SIZES = {"train": 60000, "test": 10000}


class DataError(Exception):
    """Missing, malformed or out-of-contract dataset files."""


@dataclass(frozen=True, eq=False)
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


def _read_idx(path, magic: int, kind: str, dims: tuple) -> np.ndarray:
    """The flat uint8 body of an IDX file, a view of its bytes, once its
    header holds ``magic``, a count and the sizes ``dims``."""
    raw = _read_bytes(path)
    start = 8 + 4 * len(dims)
    if len(raw) < start:
        raise DataError(f"{path}: file too short for an IDX {kind} header")
    found, count, *sizes = struct.unpack(f">{2 + len(dims)}I", raw[:start])
    if found != magic:
        raise DataError(
            f"{path}: magic {found:#010x} is not an IDX {kind} file "
            f"(expected {magic:#010x})"
        )
    if tuple(sizes) != dims:
        raise DataError(
            f"{path}: {kind} dimensions {'x'.join(map(str, sizes))}, expected "
            f"{'x'.join(map(str, dims))}"
        )
    expected = start + count * math.prod(dims)
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes for {count} {kind}s, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=start)


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a (count, 784) uint8 array."""
    return _read_idx(path, IMAGE_MAGIC, "image", (IMAGE_SIDE, IMAGE_SIDE)).reshape(-1, N_PIXELS)


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a (count,) uint8 array of classes 0..9."""
    labels = _read_idx(path, LABEL_MAGIC, "label", ())
    if labels.size and labels.max() >= N_CLASSES:
        bad = int(labels.max())
        raise DataError(f"{path}: label {bad} outside 0..{N_CLASSES - 1}")
    return labels


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a (m, 784) or (m, 28, 28) uint8 array as an uncompressed IDX
    image file, through :func:`~mlpmod.checkpoint.write_atomic`."""
    arr = np.ascontiguousarray(images, dtype=np.uint8).reshape(-1, IMAGE_SIDE, IMAGE_SIDE)
    header = struct.pack(">IIII", IMAGE_MAGIC, arr.shape[0], IMAGE_SIDE, IMAGE_SIDE)
    write_atomic(path, header, arr)


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.ascontiguousarray(labels, dtype=np.uint8).reshape(-1)
    write_atomic(path, struct.pack(">II", LABEL_MAGIC, arr.shape[0]), arr)


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


def load_dataset(name: str, data_dir) -> dict[str, LabeledImageSet]:
    """Load ``<data_dir>/<name>/`` as ``{"train": ..., "test": ...}``.

    For the two known dataset names the split sizes (60000 train / 10000
    test) are enforced; any other name is loaded as-is, which is how the
    synthetic smoke datasets come in.
    """
    directory = Path(data_dir) / name
    splits = load_splits(directory, SPLIT_FILES)
    if name in KNOWN_DATASETS:
        for split, expected in KNOWN_SPLIT_SIZES.items():
            got = len(splits[split])
            if got != expected:
                raise DataError(
                    f"{name} {split} split has {got} examples, expected {expected}"
                )
    return splits


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
