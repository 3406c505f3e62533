"""Raster frames, HSV conversion, PPM I/O, and the object segmentation pipeline.

Segmentation runs hue-band masking, a small box blur, a binary threshold,
a larger box blur, a second threshold, and largest-component selection,
then reports the component's integer centroid.  Border handling is
zero-padded throughout, which keeps the pipeline translation equivariant
away from the frame edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import write_atomic

CHANNEL_KINDS = ("rgb8", "binary", "hsv8")

BLUR_SIZES = (3, 7)
SAT_MIN = 0.15  # drops dark/washed-out pixels whose hue is meaningless
VAL_MIN = 0.15
_VALUE_LEVELS = np.rint(np.arange(256) / 255.0 * 255.0) / 255.0  # value of each uint8 channel maximum


@dataclass(frozen=True)
class ImageFrame:
    pixels: np.ndarray  # rgb8/hsv8: (h, w, 3) uint8; binary: (h, w) uint8 in {0, 1}
    channels: str

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if self.channels not in CHANNEL_KINDS:
            raise ValueError(f"unknown channel kind {self.channels!r}")
        if self.channels in ("rgb8", "hsv8"):
            if px.ndim != 3 or px.shape[2] != 3 or px.dtype != np.uint8:
                raise ValueError(f"{self.channels} frames need (h, w, 3) uint8 pixels")
        else:
            if px.ndim != 2 or px.dtype != np.uint8:
                raise ValueError(f"{self.channels} frames need (h, w) uint8 pixels")
            if px.size and px.max() > 1:
                raise ValueError("binary frames only hold 0/1 values")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("frames need at least one pixel")
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _hsv8(px: np.ndarray):
    """Hue, saturation and value planes of ``(..., 3)`` uint8 pixels, as floats rounded to 8-bit levels."""
    rgb = px.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    # gray pixels have r == g == b, so the red branch gives them hue 0
    div = np.where(delta > 0, delta, 1.0)
    hue = np.where(
        maxc == r,
        np.mod((g - b) / div, 6.0),
        np.where(maxc == g, (b - r) / div + 2.0, (r - g) / div + 4.0),
    )
    hue *= 60.0  # degrees in [0, 360)
    sat = np.where(maxc > 0, delta / np.where(maxc > 0, maxc, 1.0), 0.0)
    return np.rint(hue / 360.0 * 255.0), np.rint(sat * 255.0), np.rint(maxc * 255.0)


def rgb_to_hsv(img: ImageFrame) -> ImageFrame:
    """Hexcone HSV: hue in [0, 360) and saturation/value in [0, 1], all scaled to 8 bits."""
    if img.channels != "rgb8":
        raise ValueError(f"expected an rgb8 frame, got {img.channels}")
    return ImageFrame(np.stack(_hsv8(img.pixels), axis=2).astype(np.uint8), "hsv8")


def hsv_to_rgb_units(h_deg, s, v):
    """Scalar/array HSV (degrees, unit s and v) to unit RGB; used by the renderer."""
    h = (np.asarray(h_deg, dtype=np.float64) % 360.0) / 60.0
    s = np.asarray(s, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    i = np.floor(h).astype(int) % 6
    f = h - np.floor(h)
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return r, g, b


def read_ppm(path) -> ImageFrame:
    """Read a binary P6 PPM (maxval 255)."""
    with open(path, "rb") as f:
        data = f.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: truncated PPM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6":
        raise ValueError(f"{path}: not a P6 PPM")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    need = width * height * 3
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise ValueError(f"{path}: truncated PPM payload")
    return ImageFrame(np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3), "rgb8")


def write_ppm(img: ImageFrame, path) -> None:
    """Write as binary P6; binary frames are expanded to black and white RGB."""
    if img.channels in ("rgb8", "hsv8"):
        px = img.pixels
    else:
        px = np.repeat((img.pixels * 255).astype(np.uint8)[:, :, None], 3, axis=2)
    write_atomic(path, [f"P6\n{img.width} {img.height}\n255\n".encode(), np.ascontiguousarray(px).tobytes()])


def _blur(mask: np.ndarray, size: int) -> np.ndarray:
    """``ndimage.uniform_filter(mask, size, mode="constant")`` of a 0/1 mask, bit for bit.

    Down the columns every window sum is an exact integer.  Along the rows
    scipy keeps a running sum, started from the first window's sequential
    sum and stepped by (entering - leaving), and divides it by ``size`` at
    each step; ``cumsum`` adds in that order, so every rounding matches.
    """
    h, w = mask.shape
    pad = size // 2
    padded = np.zeros((h + size - 1, w + size - 1), dtype=np.int16)
    padded[pad : pad + h, pad : pad + w] = mask
    cols = sum(padded[k : k + h] for k in range(size)) / size
    steps = np.empty((h, w))
    steps[:, 0] = sum(cols[:, k] for k in range(size))
    steps[:, 1:] = cols[:, size:] - cols[:, : w - 1]
    return np.cumsum(steps, axis=1, out=steps) / size


def _largest_component(mask: np.ndarray):
    """(uint8 mask, rounded centroid) of the largest 4-connected component; None if empty.

    Works on horizontal runs in raster order.  Runs in adjacent rows whose
    columns overlap are joined under the smaller run index, so components
    rank like ``ndimage.label``'s numbering, and a tie in size goes to the
    component that starts first.
    """
    h, w = mask.shape
    rows, cols = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    row, start, end = rows[::2], cols[::2], cols[1::2]  # run i covers [start[i], end[i]) of its row
    if row.size == 0:
        return None
    # the runs of the next row that overlap run i are first[i] <= j < last[i]
    key = row * (w + 1)
    first = np.searchsorted(key + end, key + w + 1 + start, side="right")
    last = np.searchsorted(key + start, key + w + 1 + end, side="left")
    parent = list(range(row.size))

    def root(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, lo, hi in zip(range(row.size), first.tolist(), last.tolist()):
        for j in range(lo, hi):
            a, b = root(i), root(j)
            parent[max(a, b)] = min(a, b)
    roots = np.array([root(i) for i in range(row.size)])
    keep = roots == np.argmax(np.bincount(roots, weights=end - start))
    row, start, end = row[keep], start[keep], end[keep]
    toggles = np.zeros((h, w + 1), dtype=np.int8)
    toggles[row, start] = 1
    toggles[row, end] = -1
    component = np.cumsum(toggles[:, :w], axis=1, dtype=np.int8).view(np.uint8)
    # exact integer sums, so each mean is the float rows.mean() gives; round
    # half up: commutes with integer shifts, keeping the pipeline translation
    # equivariant (half-even rounding would not)
    n = int((end - start).sum())
    sums = int(row @ (end - start)), int((start + end - 1) @ (end - start)) // 2
    return component, tuple(math.floor(total / n + 0.5) for total in sums)


def segment_object(img: ImageFrame, hue_lo: float, hue_hi: float, threshold: float = 0.5):
    """Isolate the largest in-band object; returns (binary mask, (row, col) centroid).

    ``hue_lo`` and ``hue_hi`` are degrees in [0, 360]; a range with
    hue_lo > hue_hi wraps around 0/360 (e.g. 330..30 selects reds).  The
    in-band test reads the same 8-bit hue, saturation and value as
    ``rgb_to_hsv``, but converts only the pixels that pass the value floor.
    ``threshold`` is a fraction of the post-blur maximum.
    """
    if img.channels != "rgb8":
        raise ValueError(f"expected an rgb8 frame, got {img.channels}")
    if not (0.0 <= hue_lo <= 360.0 and 0.0 <= hue_hi <= 360.0):
        raise ValueError(f"hue bounds must be in [0, 360], got {hue_lo!r}, {hue_hi!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
    px = img.pixels
    # value is the channel maximum over 255 and its 8-bit levels rise with
    # it, so the value floor is a threshold on the uint8 maximum
    lowest = 256 - np.count_nonzero(_VALUE_LEVELS >= VAL_MIN)
    maxc = np.maximum(np.maximum(px[..., 0], px[..., 1]), px[..., 2])
    bright = np.flatnonzero(maxc >= lowest)
    h8, s8, _ = _hsv8(np.take(px.reshape(-1, 3), bright, axis=0))
    hue = h8 / 255.0 * 360.0
    if hue_lo <= hue_hi:
        in_band = (hue >= hue_lo) & (hue <= hue_hi)
    else:
        in_band = (hue >= hue_lo) | (hue <= hue_hi)
    mask = np.zeros(maxc.size, dtype=bool)
    mask[bright] = in_band & (s8 / 255.0 >= SAT_MIN)
    mask = mask.reshape(maxc.shape)
    if not mask.any():
        raise ValueError("no object in hue band")
    for size in BLUR_SIZES:  # a non-empty mask's blur peaks above 0 and keeps its peak
        blurred = _blur(mask, size)
        mask = blurred >= threshold * blurred.max()
    component, centroid = _largest_component(mask)
    return ImageFrame(component, "binary"), centroid


def extract_patch(img: ImageFrame, centroid, side: int = 52) -> np.ndarray:
    """Flattened side x side crop of a mask centered on the centroid.

    The crop is zero-padded at the borders and binarized, so the result is
    always a length side*side vector of 0/1 values.
    """
    if img.channels != "binary":
        raise ValueError(f"expected a mask frame, got {img.channels}")
    r, c = int(centroid[0]), int(centroid[1])
    if not (0 <= r < img.height and 0 <= c < img.width):
        raise ValueError(f"centroid {centroid} is outside the frame")
    half = side // 2
    out = np.zeros((side, side), dtype=np.float64)
    r0, c0 = r - half, c - half
    src_r0, src_c0 = max(r0, 0), max(c0, 0)
    src_r1, src_c1 = min(r0 + side, img.height), min(c0 + side, img.width)
    window = img.pixels[src_r0:src_r1, src_c0:src_c1]
    out[src_r0 - r0 : src_r1 - r0, src_c0 - c0 : src_c1 - c0] = (window > 0).astype(np.float64)
    return out.reshape(-1)
