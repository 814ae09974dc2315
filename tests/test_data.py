import gzip
import os
import struct

import numpy as np
import pytest

from mlpmod.data import (
    DataError,
    load_dataset,
    load_idx_images,
    load_idx_labels,
    load_split_files,
    make_synthetic_dataset,
    write_idx_images,
    write_idx_labels,
)


@pytest.fixture
def fixture_images():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, size=(2, 784), dtype=np.uint8)


def test_image_round_trip(fixture_images, tmp_path):
    path = tmp_path / "images-idx3-ubyte"
    write_idx_images(path, fixture_images)
    loaded = load_idx_images(path)
    np.testing.assert_array_equal(loaded, fixture_images)
    # byte-exact when rewritten
    write_idx_images(tmp_path / "again", loaded)
    assert (tmp_path / "again").read_bytes() == path.read_bytes()


def test_label_round_trip(tmp_path):
    labels = np.array([3, 0, 9], dtype=np.uint8)
    path = tmp_path / "labels-idx1-ubyte"
    write_idx_labels(path, labels)
    np.testing.assert_array_equal(load_idx_labels(path), labels)


def test_non_contiguous_arrays_write_the_bytes_of_the_joined_form(tmp_path):
    rng = np.random.default_rng(1)
    wide = rng.integers(0, 256, size=(6, 2 * 784), dtype=np.uint8)
    images = wide[::2, ::2]  # strided on both axes
    labels = rng.integers(0, 10, size=12, dtype=np.uint8)[::4]
    assert not images.flags.c_contiguous and not labels.flags.c_contiguous
    write_idx_images(tmp_path / "images", images)
    write_idx_labels(tmp_path / "labels", labels)
    assert (tmp_path / "images").read_bytes() == (
        struct.pack(">IIII", 2051, 3, 28, 28) + images.tobytes()
    )
    assert (tmp_path / "labels").read_bytes() == struct.pack(">II", 2049, 3) + labels.tobytes()
    # a Fortran-order array is not C-contiguous either
    write_idx_images(tmp_path / "fortran", np.asfortranarray(images))
    assert (tmp_path / "fortran").read_bytes() == (tmp_path / "images").read_bytes()


def test_image_write_that_fails_leaves_no_file(fixture_images, tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename failed"):
        write_idx_images(tmp_path / "images-idx3-ubyte", fixture_images)
    assert list(tmp_path.iterdir()) == []


def test_gzip_transparency(fixture_images, tmp_path):
    path = tmp_path / "images-idx3-ubyte.gz"
    write_idx_images(path, fixture_images)
    path.write_bytes(gzip.compress(path.read_bytes()))
    assert path.read_bytes()[:2] == b"\x1f\x8b"
    np.testing.assert_array_equal(load_idx_images(path), fixture_images)


def test_label_file_passed_as_images_rejected(tmp_path):
    path = tmp_path / "labels"
    write_idx_labels(path, np.ones(20, dtype=np.uint8))
    with pytest.raises(DataError, match="0x00000801 is not an IDX image file"):
        load_idx_images(path)


def test_header_shorter_than_image_header_rejected(tmp_path):
    (tmp_path / "stub").write_bytes(b"\x00\x00\x08\x03\x00")
    with pytest.raises(DataError, match="too short"):
        load_idx_images(tmp_path / "stub")


def test_image_file_passed_as_labels_rejected(fixture_images, tmp_path):
    path = tmp_path / "images"
    write_idx_images(path, fixture_images)
    with pytest.raises(DataError, match="not an IDX label file"):
        load_idx_labels(path)


def test_truncated_image_file_rejected(fixture_images, tmp_path):
    path = tmp_path / "images"
    write_idx_images(path, fixture_images)
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(DataError, match="expected"):
        load_idx_images(path)


def _truncated(raw):
    return raw[:-20]


def _corrupt_deflate(raw):
    # the first deflate byte after the 10-byte gzip header: block type 3 is reserved
    return raw[:10] + b"\xff" + raw[11:]


def _bad_crc(raw):
    return raw[:-8] + bytes(b ^ 0xFF for b in raw[-8:-4]) + raw[-4:]


@pytest.mark.parametrize("damage", [_truncated, _corrupt_deflate, _bad_crc])
def test_corrupt_gzip_file_is_data_error_naming_it(fixture_images, tmp_path, damage):
    path = tmp_path / "t10k-images-idx3-ubyte.gz"
    write_idx_images(path, fixture_images)
    path.write_bytes(gzip.compress(path.read_bytes()))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataError, match="t10k-images-idx3-ubyte.gz: corrupt gzip file"):
        load_idx_images(path)


def test_wrong_image_dimensions_rejected(tmp_path):
    header = struct.pack(">IIII", 0x00000803, 1, 27, 28)
    (tmp_path / "images").write_bytes(header + b"\x00" * (27 * 28))
    with pytest.raises(DataError, match="27x28"):
        load_idx_images(tmp_path / "images")


def test_out_of_range_label_rejected(tmp_path):
    payload = struct.pack(">II", 0x00000801, 3) + bytes([1, 17, 4])
    (tmp_path / "labels").write_bytes(payload)
    with pytest.raises(DataError, match="label 17"):
        load_idx_labels(tmp_path / "labels")


def test_missing_file_error_names_path(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_idx_images(tmp_path / "absent")


def test_load_split_keeps_the_file_pixels_as_uint8(fixture_images, tmp_path):
    write_idx_images(tmp_path / "imgs", fixture_images)
    write_idx_labels(tmp_path / "labs", np.array([0, 9], dtype=np.uint8))
    split = load_split_files(tmp_path / "imgs", tmp_path / "labs", "test")
    assert split.images.dtype == np.uint8
    assert split.images.shape == (2, 784)
    assert split.images.tobytes() == (tmp_path / "imgs").read_bytes()[16:]
    assert split.labels.dtype == np.int64
    assert split.labels.tolist() == [0, 9]
    assert len(split) == 2


@pytest.mark.slow
def test_full_size_splits_hold_one_byte_per_pixel(full_shape_mnist_dir):
    # a float64 copy of the pixels would be 8 bytes each
    dataset = load_dataset("mnist", full_shape_mnist_dir)
    assert dataset["train"].images.nbytes == 60000 * 784
    assert dataset["test"].images.nbytes == 10000 * 784


def test_count_mismatch_between_images_and_labels(fixture_images, tmp_path):
    write_idx_images(tmp_path / "imgs", fixture_images)
    write_idx_labels(tmp_path / "labs", np.array([1], dtype=np.uint8))
    with pytest.raises(DataError, match="2 images but 1 labels"):
        load_split_files(tmp_path / "imgs", tmp_path / "labs", "test")


def test_empty_dir_lists_all_four_expected_files(tmp_path):
    with pytest.raises(DataError) as err:
        load_dataset("mnist", tmp_path)
    message = str(err.value)
    for name in (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    ):
        assert name in message


def test_known_dataset_counts_enforced(tmp_path):
    # files present but with toy sizes: must fail the mnist count contract
    make_synthetic_dataset(tmp_path, name="mnist", n_train=20, n_test=20)
    with pytest.raises(DataError, match="60000"):
        load_dataset("mnist", tmp_path)


def test_synthetic_dataset_loads_under_its_own_name(tmp_path):
    make_synthetic_dataset(tmp_path, name="smoke", n_train=20, n_test=10, seed=3)
    dataset = load_dataset("smoke", tmp_path)
    assert type(dataset) is dict and dataset.keys() == {"train", "test"}
    assert len(dataset["train"]) == 20
    assert len(dataset["test"]) == 10
    assert dataset["train"].images.shape == (20, 784)
    assert dataset["train"].labels.min() >= 0
    assert dataset["train"].labels.max() <= 9


def test_synthetic_dataset_gzip_variant(tmp_path):
    directory = make_synthetic_dataset(tmp_path, name="smokegz", n_train=5, n_test=5)
    for path in list(directory.iterdir()):
        path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes()))
        path.unlink()
    dataset = load_dataset("smokegz", tmp_path)
    assert len(dataset["train"]) == 5
