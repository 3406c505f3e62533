import errno
import os
import re
import stat

import numpy as np
import pytest

from elmkit.data import (
    IDX_IMAGE_MAGIC,
    LabeledDataset,
    load_csv,
    load_idx,
    save_idx,
    split_train_test,
    write_atomic,
)
from elmkit.numerics import Rng


@pytest.fixture
def idx_pair(tmp_path):
    gen = Rng(1).generator()
    pixels = gen.uniform(0, 1, (4, 28 * 28))
    labels = np.array([3, 1, 4, 1])
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    save_idx(pixels, labels, images_path, labels_path, 28, 28)
    return images_path, labels_path, pixels, labels


def test_idx_fixture_round_trip(idx_pair):
    images_path, labels_path, pixels, labels = idx_pair
    ds = load_idx(images_path, labels_path)
    assert ds.n_samples == 4 and ds.n_features == 784
    np.testing.assert_array_equal(ds.labels, labels)
    # quantized to 8 bits and back: byte-identical payload on a second pass
    save_idx(ds.x, ds.labels, images_path, labels_path, 28, 28)
    ds2 = load_idx(images_path, labels_path)
    assert ds2.x.tobytes() == ds.x.tobytes()


@pytest.mark.parametrize("label", [256, -1])
def test_save_idx_refuses_a_label_outside_a_byte(tmp_path, label):
    with pytest.raises(ValueError, match=rf"labels must be in \[0, 255\], got {label}$"):
        save_idx(np.zeros((3, 4)), [0, label, 255], tmp_path / "x.idx", tmp_path / "y.idx", 2, 2)
    assert list(tmp_path.iterdir()) == []  # refused before anything is written


@pytest.mark.parametrize(
    "labels, first", [([1.5, 2.9], "1.5"), ([0.0, 3.0, 2.25], "2.25"), ([1.0, float("nan")], "nan")]
)
def test_save_idx_refuses_a_label_that_is_not_a_whole_number(tmp_path, labels, first):
    pixels = np.zeros((len(labels), 4))
    with pytest.raises(ValueError, match=rf"labels must be whole numbers, got {first}$"):
        save_idx(pixels, labels, tmp_path / "x.idx", tmp_path / "y.idx", 2, 2)
    assert list(tmp_path.iterdir()) == []  # refused before anything is written
    save_idx(pixels[:1], np.floor(labels[:1]), tmp_path / "x.idx", tmp_path / "y.idx", 2, 2)  # whole floats are written
    assert load_idx(tmp_path / "x.idx", tmp_path / "y.idx").labels.tolist() == [int(labels[0])]


def test_idx_values_scaled_to_unit_interval(idx_pair):
    ds = load_idx(idx_pair[0], idx_pair[1])
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def test_idx_bad_magic(idx_pair, tmp_path):
    images_path, labels_path, *_ = idx_pair
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x08\x05" + images_path.read_bytes()[4:])
    with pytest.raises(ValueError, match="bad IDX magic"):
        load_idx(bad, labels_path)


def test_idx_truncated(idx_pair, tmp_path):
    images_path, labels_path, *_ = idx_pair
    cut = tmp_path / "cut.idx"
    cut.write_bytes(images_path.read_bytes()[:-10])
    with pytest.raises(ValueError, match="truncated payload"):
        load_idx(cut, labels_path)


def test_idx_count_mismatch(idx_pair, tmp_path):
    images_path, _, _, _ = idx_pair
    short_labels = tmp_path / "short.idx"
    import struct

    short_labels.write_bytes(struct.pack(">ii", 0x00000801, 3) + bytes([0, 1, 2]))
    with pytest.raises(ValueError, match="count mismatch"):
        load_idx(images_path, short_labels)


def test_idx_missing_file(idx_pair, tmp_path):
    with pytest.raises(FileNotFoundError):
        load_idx(tmp_path / "nope.idx", idx_pair[1])


def test_csv_loading(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,label,b\n1.0,cat,2.0\n3.0,dog,4.0\n5.0,cat,6.0\n")
    ds = load_csv(p)
    assert ds.class_names == ("cat", "dog")
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    np.testing.assert_array_equal(ds.x, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_csv_requires_label_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(p)


def test_csv_rejects_non_numeric_features(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("a,label\nx,0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(p)


@pytest.mark.parametrize("label", ["", "  "])
def test_csv_rejects_an_empty_label(tmp_path, label):
    # it would otherwise train and score a class named ""
    p = tmp_path / "data.csv"
    p.write_text(f"a,label\n1.0,cat\n2.0,{label}\n3.0,dog\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:3: empty label$"):
        load_csv(p)


def test_dataset_validates_labels():
    with pytest.raises(ValueError, match="out of range"):
        LabeledDataset(np.zeros((2, 2)), [0, 5], ("a", "b"))


def test_split_is_deterministic_and_disjoint():
    ds = LabeledDataset(np.arange(40).reshape(20, 2), [0, 1] * 10, ("a", "b"))
    tr1, te1 = split_train_test(ds, 0.25, Rng(5))
    tr2, te2 = split_train_test(ds, 0.25, Rng(5))
    assert te1.n_samples == 5 and tr1.n_samples == 15
    np.testing.assert_array_equal(te1.x, te2.x)
    combined = np.vstack([tr1.x, te1.x])
    assert len(np.unique(combined[:, 0])) == 20


def test_split_rejects_bad_fraction():
    ds = LabeledDataset(np.zeros((4, 1)), [0, 1, 0, 1], ("a", "b"))
    with pytest.raises(ValueError, match="test_fraction"):
        split_train_test(ds, 1.5, Rng(0))


def test_write_atomic_failure_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old contents")

    def chunks():
        yield b"new "
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError, match="writer failed"):
        write_atomic(target, chunks())
    assert target.read_bytes() == b"old contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin"]


def test_write_atomic_into_a_missing_directory_names_the_target(tmp_path):
    target = tmp_path / "missing" / "out.bin"
    with pytest.raises(OSError) as err:
        write_atomic(target, [b"x"])
    assert err.value.errno == errno.ENOENT
    assert str(target) in str(err.value) and "tmp" not in str(err.value).replace(str(tmp_path), ""), err.value
    assert list(tmp_path.iterdir()) == []


def test_write_atomic_onto_a_directory_names_the_target(tmp_path):
    target = tmp_path / "isdir.bin"
    target.mkdir()
    with pytest.raises(OSError) as err:
        write_atomic(target, [b"x"])
    assert err.value.errno == errno.EISDIR
    assert str(target) in str(err.value) and ".tmp" not in str(err.value), err.value
    assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []


def test_write_atomic_gives_the_mode_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        write_atomic(tmp_path / "atomic", [b"x"])
        with open(tmp_path / "plain", "wb") as f:
            f.write(b"x")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic", "plain")}
    assert len(modes) == 1
