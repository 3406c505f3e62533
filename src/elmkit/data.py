"""Dataset containers and file ingestion (IDX image archives, labeled CSV)."""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass

import numpy as np

from .numerics import Rng

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    x: np.ndarray  # n_samples x n_features, float64
    labels: np.ndarray  # n_samples, int64 class indices
    class_names: tuple[str, ...]

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        if labels.size != x.shape[0]:
            raise ValueError("one label per row required")
        if labels.size and (labels.min() < 0 or labels.max() >= len(self.class_names)):
            raise ValueError("labels out of range of class_names")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_samples(self) -> int:
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temp file beside ``path``, then rename it onto ``path``."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    try:
        # mode 0o666 less the umask, as open(path, "wb") would create it
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    except OSError as e:
        # the temp name is ours, not the caller's: report the path asked for
        raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise OSError(e.errno, e.strerror, os.fspath(path)) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_exact(f, n, path, what):
    """``n`` bytes of ``what`` from ``f``, refused before reading if the rest of the file is shorter."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if not 0 <= n <= left:
        raise ValueError(f"truncated payload in {path}: expected {n} bytes of {what}, but {left} are left")
    return f.read(n)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load a big-endian IDX image/label file pair, pixels scaled to [0, 1]."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad IDX magic in {images_path}: 0x{magic:08x}")
        if count < 0 or rows < 1 or cols < 1:
            raise ValueError(f"nonsensical IDX header in {images_path}")
        raw = _read_exact(f, count * rows * cols, images_path, "pixels")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, n_labels = struct.unpack(">ii", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad IDX magic in {labels_path}: 0x{magic:08x}")
        labels = np.frombuffer(_read_exact(f, n_labels, labels_path, "labels"), dtype=np.uint8)
    if count != n_labels:
        raise ValueError(f"count mismatch: {count} images but {n_labels} labels")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    return LabeledDataset(
        pixels.astype(np.float64) / 255.0,
        labels.astype(np.int64),
        tuple(str(i) for i in range(max(n_classes, 1))),
    )


def save_idx(pixels, labels, images_path, labels_path, rows: int, cols: int) -> None:
    """Write an IDX pair; pixels in [0, 1] are quantized back to uint8."""
    pixels = np.asarray(pixels, dtype=np.float64)
    labels = np.asarray(labels)
    fractional = labels != np.floor(labels)  # NaN included
    if fractional.any():
        raise ValueError(f"IDX labels must be whole numbers, got {labels[fractional][0]}")
    if labels.size and not 0 <= labels.min() <= labels.max() <= 255:
        raise ValueError(f"IDX labels must be in [0, 255], got {labels[(labels < 0) | (labels > 255)][0]}")
    count = pixels.shape[0]
    if pixels.shape[1] != rows * cols:
        raise ValueError(f"pixel rows of length {pixels.shape[1]} != {rows}x{cols}")
    if labels.size != count:
        raise ValueError("one label per image required")
    scaled = pixels * 255.0  # the one float temporary: rounded and clipped in place
    np.rint(scaled, out=scaled)
    quantized = np.clip(scaled, 0, 255, out=scaled).astype(np.uint8)
    write_atomic(images_path, [struct.pack(">iiii", IDX_IMAGE_MAGIC, count, rows, cols), quantized.tobytes()])
    write_atomic(labels_path, [struct.pack(">ii", IDX_LABEL_MAGIC, count), labels.astype(np.uint8).tobytes()])


def load_csv(path) -> LabeledDataset:
    """Load a CSV with a header row; the label column must be named 'label'."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path} has no 'label' column")
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]
        rows, raw_labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(row[i]) for i in feature_cols])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric feature value") from None
            label = row[label_col].strip()
            if not label:
                raise ValueError(f"{path}:{lineno}: empty label")
            raw_labels.append(label)
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    names = sorted(set(raw_labels))
    index = {name: i for i, name in enumerate(names)}
    labels = np.array([index[v] for v in raw_labels], dtype=np.int64)
    return LabeledDataset(np.array(rows), labels, tuple(names))


def split_train_test(ds: LabeledDataset, test_fraction: float, rng: Rng):
    """Deterministic shuffled split; returns (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    order = rng.generator().permutation(ds.n_samples)
    n_test = max(1, int(round(ds.n_samples * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size == 0:
        raise ValueError("split leaves no training samples")
    return (
        LabeledDataset(ds.x[train_idx], ds.labels[train_idx], ds.class_names),
        LabeledDataset(ds.x[test_idx], ds.labels[test_idx], ds.class_names),
    )
