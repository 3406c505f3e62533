"""Raster frames, HSV conversion, PPM I/O, and the object segmentation pipeline.

A frame is an ``(h, w, 3)`` uint8 RGB array and a mask an ``(h, w)`` uint8
array of 0/1 values; each function checks the arrays it is given.

Segmentation runs hue-band masking, a small box blur, a binary threshold,
a larger box blur, a second threshold, and largest-component selection,
then reports the component's integer centroid.  Border handling is
zero-padded throughout, which keeps the pipeline translation equivariant
away from the frame edges.  ``segment_frames`` runs each step as one array
pass over a stack of frames; ``segment_object`` is its one-frame view.

The in-band test reads 8-bit hue and saturation codes through 256-entry
tables.  It converts only the pixels that pass the value floor and, when no
green- or blue-max pixel can be in band, whose strongest channel is red.
Each blur keeps the windows whose exact integer count of set pixels is at
least the threshold times the frame's peak count, so a tie on the cut is
kept wherever it lies.  A frame whose in-band pixels fill no window of the
first blur holds no object, only specks, thin lines or scattered noise, and
is refused whatever the threshold.
"""

from __future__ import annotations

import numpy as np

from .data import write_atomic

BLUR_SIZES = (3, 7)
SAT_MIN = 0.15  # drops dark/washed-out pixels whose hue is meaningless
VAL_MIN = 0.15
# the hue codes of the pixels whose strongest channel is green or blue (ties go
# to red): their hues lie in (60, 300) degrees, so their codes, degrees / 360 *
# 255 rounded, in 43..212, as a test over every 8-bit colour checks.  A band
# that holds none of them can keep only red-max pixels
_GREEN_BLUE_CODES = np.arange(43, 213)


def _rgb8(px, stack: bool = False) -> np.ndarray:
    """``px`` as an array if it is a non-empty ``(h, w, 3)`` uint8 frame, or a stack of them; otherwise a ValueError."""
    px = np.asarray(px)
    shape = "(n, h, w, 3)" if stack else "(h, w, 3)"
    if px.dtype != np.uint8 or px.ndim != 3 + stack or px.shape[-1] != 3 or px.size == 0:
        raise ValueError(f"frames must be non-empty {shape} uint8 arrays, got {px.dtype} of shape {px.shape}")
    return px


def _hsv8(px: np.ndarray):
    """Hue, saturation and value codes of ``(..., 3)`` uint8 pixels, as uint8 planes."""
    rgb = px.astype(np.float64)
    rgb /= 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    delta = maxc - np.minimum(np.minimum(r, g), b)
    # the strongest channel picks the branch, ties going to red, then green;
    # gray pixels have r == g == b, so the red branch gives them hue 0
    red = maxc == r
    green = ~red & (maxc == g)
    blue = ~(red | green)
    hue = g - b
    np.subtract(b, r, out=hue, where=green)
    np.subtract(r, g, out=hue, where=blue)
    hue /= np.where(delta > 0, delta, 1.0)
    np.add(hue, 2.0, out=hue, where=green)
    np.add(hue, 4.0, out=hue, where=blue)
    # only the red branch goes below 0, to (g - b) / delta in [-1, 0); adding 6
    # there is np.mod(hue, 6.0), rounding included, at a fraction of its cost
    np.add(hue, 6.0, out=hue, where=hue < 0)
    hue *= 60.0  # degrees in [0, 360)
    hue /= 360.0
    sat = delta / np.where(maxc > 0, maxc, 1.0)  # 0 / 1 where maxc and delta are 0
    return tuple(_code(plane) for plane in (hue, sat, maxc))


def _code(plane: np.ndarray) -> np.ndarray:
    """The 8-bit codes of a float plane in [0, 1], rounded half to even; ``plane`` is overwritten."""
    plane *= 255.0
    return np.rint(plane, out=plane).astype(np.uint8)


def rgb_to_hsv(px: np.ndarray) -> np.ndarray:
    """Hexcone HSV of a frame: hue in [0, 360) and saturation/value in [0, 1], all scaled to 8 bits."""
    return np.stack(_hsv8(_rgb8(px)), axis=2)


def _header_int(path, name: str, raw: bytes) -> int:
    """A PPM header field as a decimal integer, optionally negative, so that a bad size is reported as one."""
    if not (raw[1:] if raw[:1] == b"-" else raw).isdigit():
        raise ValueError(f"{path}: PPM {name} is not an integer: {raw.decode('latin-1')!r}")
    return int(raw)


def read_ppm(path) -> np.ndarray:
    """Read a binary P6 PPM (maxval 255) as a frame."""
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
    width, height, maxval = (_header_int(path, *field) for field in zip(("width", "height", "maxval"), fields[1:]))
    for name, value in (("width", width), ("height", height)):
        if value < 1:
            raise ValueError(f"{path}: PPM {name} must be positive, got {value}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported")
    need = width * height * 3
    raw = data[pos : pos + need]
    if len(raw) != need:
        raise ValueError(f"{path}: truncated PPM payload")
    return np.frombuffer(raw, dtype=np.uint8).reshape(height, width, 3)


def write_ppm(px: np.ndarray, path) -> None:
    """Write a frame as binary P6; a mask is expanded to black and white RGB."""
    px = np.asarray(px)
    if px.ndim == 2:
        if px.dtype != np.uint8 or (px.size and px.max() > 1):
            raise ValueError(f"masks must be (h, w) uint8 arrays of 0/1 values, got {px.dtype} of shape {px.shape}")
        px = np.repeat(px[:, :, None] * np.uint8(255), 3, axis=2)
    h, w, _ = _rgb8(px).shape
    write_atomic(path, [f"P6\n{w} {h}\n255\n".encode(), px.tobytes()])


def _window_counts(mask: np.ndarray, size: int) -> np.ndarray:
    """The exact integer count of set pixels in every zero-padded ``size x size`` window of each
    ``(h, w)`` plane of ``mask``, summed from shifted slices."""
    *lead, h, w = mask.shape
    pad = size // 2
    padded = np.zeros((*lead, h + size - 1, w + size - 1), dtype=np.min_scalar_type(size * size))
    padded[..., pad : pad + h, pad : pad + w] = mask
    cols = padded[..., :h, :].copy()
    for k in range(1, size):
        cols += padded[..., k : k + h, :]
    counts = cols[..., :w].copy()
    for k in range(1, size):
        counts += cols[..., k : k + w]
    return counts


def _blur_threshold(mask: np.ndarray, size: int, threshold: float) -> np.ndarray:
    """The windows of a ``size x size`` box blur whose count reaches ``threshold`` times the peak count.

    ``mask`` is ``(..., h, w)``; each ``(h, w)`` plane is blurred on its own,
    against its own peak.  For an integer count c, c >= threshold * peak in
    float64 is c >= ceil(threshold * peak), so every window is decided exactly.
    """
    counts = _window_counts(mask, size)
    # the cut is at most the peak, so it fits the counts' type
    peak = counts.max(axis=(-2, -1), keepdims=True).astype(np.float64)
    return counts >= np.ceil(threshold * peak).astype(counts.dtype)


def _largest_components(masks: np.ndarray):
    """[(uint8 mask, rounded centroid)] of the largest 4-connected component
    of each plane of an ``(n, h, w)`` stack of non-empty masks.

    The runs of the whole stack are labelled by hook and shortcut (Shiloach
    and Vishkin, J. Algorithms 3(1), 1982): each pair of runs in adjacent
    rows whose columns overlap hooks its larger label onto the smaller, then
    each label takes its label's label, until every pair agrees.  A
    component's label is then its first run, so a tie in size goes to the
    component that starts first, as in ``ndimage.label``'s numbering.
    """
    n, h, w = masks.shape
    stride = w + 1  # each row ends in a clear pixel and each plane in a clear row, so no run wraps
    raster = np.zeros(n * (h + 1) * stride + 1, dtype=bool)  # and a clear pixel before the first row
    raster[1:].reshape(n, h + 1, stride)[:, :h, :w] = masks
    edges = np.flatnonzero(raster[1:] != raster[:-1])
    start, end = edges[::2], edges[1::2]  # run i covers [start[i], end[i]) of raster[1:]
    # the runs of the next row that overlap run i are first[i] <= j < last[i]
    first = np.searchsorted(end, start + stride, side="right")
    last = np.searchsorted(start, end + stride, side="left")
    count = last - first
    i = np.repeat(np.arange(start.size), count)
    j = np.arange(i.size) - np.repeat(np.cumsum(count) - count - first, count)
    label = np.arange(start.size)
    while not np.array_equal(a := label[i], b := label[j]):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        label = label[label]
    length = end - start
    plane, offset = np.divmod(start, (h + 1) * stride)
    row, col = np.divmod(offset, stride)
    size = np.bincount(label, weights=length, minlength=label.size)  # held by each component's first run
    best = np.lexsort((-size, plane))  # by plane, then size down; stable, so a tie keeps the smaller label
    keep = np.isin(label, best[np.searchsorted(plane, np.arange(n))])
    plane, row, col, length = plane[keep], row[keep], col[keep], length[keep]
    # pixel k of the kept runs lies at k + (run start - pixels in earlier runs)
    before = np.cumsum(length) - length
    components = np.zeros((n, h, w), dtype=np.uint8)
    components.reshape(-1)[np.repeat((plane * h + row) * w + col - before, length) + np.arange(length.sum())] = 1
    # exact integer sums, so each mean is the float rows.mean() gives; round
    # half up: commutes with integer shifts, keeping the pipeline translation
    # equivariant (half-even rounding would not)
    bounds = np.searchsorted(plane, np.arange(n))
    sums = np.add.reduceat([row * length, (2 * col + length - 1) * length // 2, length], bounds, axis=1)
    centroids = np.floor(sums[:2] / sums[2] + 0.5).astype(np.int64).T.tolist()
    return [(component, tuple(centroid)) for component, centroid in zip(components, centroids)]


def _code_tables(hue_lo: float, hue_hi: float):
    """The in-band test on 8-bit codes: (the least uint8 channel maximum whose value
    reaches ``VAL_MIN``, a 256-entry table of the hue codes in the band, one of the
    saturation codes that reach ``SAT_MIN``, whether only red-max pixels can be in
    band)."""
    codes = np.arange(256)
    # value is the channel maximum over 255, and its 8-bit levels rise with it
    value_floor = 256 - int(np.count_nonzero(np.rint(codes / 255.0 * 255.0) / 255.0 >= VAL_MIN))
    hue = codes / 255.0 * 360.0
    if hue_lo <= hue_hi:
        band = (hue >= hue_lo) & (hue <= hue_hi)
    else:
        band = (hue >= hue_lo) | (hue <= hue_hi)
    sat = codes / 255.0 >= SAT_MIN
    return value_floor, band, sat, not band[_GREEN_BLUE_CODES].any()


def segment_frames(frames: np.ndarray, hue_lo: float, hue_hi: float, threshold: float = 0.5):
    """Isolate the largest in-band object of each frame of an ``(n, h, w, 3)`` uint8 stack.

    Returns a list of (mask, (row, col) centroid), one per frame; each step,
    the component labelling included, is one array pass over the stack.
    ``hue_lo`` and ``hue_hi`` are degrees in [0, 360]; a range with hue_lo >
    hue_hi wraps around 0/360 (e.g. 330..30 selects reds).  The in-band test
    reads the same 8-bit hue, saturation and value as ``rgb_to_hsv``.
    ``threshold`` is a fraction of each frame's post-blur maximum.  A stack
    with a frame whose in-band pixels fill no ``3 x 3`` window (the first of
    ``BLUR_SIZES``) raises ValueError("no object in hue band").
    """
    frames = _rgb8(frames, stack=True)
    if not (0.0 <= hue_lo <= 360.0 and 0.0 <= hue_hi <= 360.0):
        raise ValueError(f"hue bounds must be in [0, 360], got {hue_lo!r}, {hue_hi!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
    value_floor, band, sat, red_only = _code_tables(hue_lo, hue_hi)
    red = frames[..., 0]
    maxc = np.maximum(np.maximum(red, frames[..., 1]), frames[..., 2])
    keep = maxc >= value_floor
    if red_only:
        keep &= red == maxc
    candidates = np.flatnonzero(keep)
    h8, s8, _ = _hsv8(np.take(frames.reshape(-1, 3), candidates, axis=0))
    mask = np.zeros(maxc.shape, dtype=bool)
    mask.reshape(-1)[candidates] = band[h8] & sat[s8]
    small, large = BLUR_SIZES
    area = small * small
    counts = _window_counts(mask, small)
    # an object fills some small window with in-band pixels, where specks, thin lines, scattered noise
    # and an empty mask fill none; so each frame kept peaks at the full count, and the cut is one number
    if not (counts == area).any(axis=(1, 2)).all():
        raise ValueError("no object in hue band")
    mask = counts >= int(np.ceil(float(threshold) * area))
    return _largest_components(_blur_threshold(mask, large, threshold))


def segment_object(px: np.ndarray, hue_lo: float, hue_hi: float, threshold: float = 0.5):
    """Isolate the largest in-band object of a frame; returns (mask, (row, col) centroid).

    The one-frame view of ``segment_frames``, which states the arguments.
    """
    return segment_frames(_rgb8(px)[None], hue_lo, hue_hi, threshold)[0]


def extract_patch(mask: np.ndarray, centroid, side: int = 52) -> np.ndarray:
    """Flattened side x side crop of a mask centered on the centroid.

    The crop is zero-padded at the borders and binarized, so the result is
    always a length side*side vector of 0/1 values.
    """
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"masks must be 2-D, got shape {mask.shape}")
    if side < 1:
        raise ValueError(f"side must be >= 1, got {side}")
    h, w = mask.shape
    r, c = int(centroid[0]), int(centroid[1])
    if not (0 <= r < h and 0 <= c < w):
        raise ValueError(f"centroid {centroid} is outside the frame")
    half = side // 2
    out = np.zeros((side, side), dtype=np.float64)
    r0, c0 = r - half, c - half
    src_r0, src_c0 = max(r0, 0), max(c0, 0)
    src_r1, src_c1 = min(r0 + side, h), min(c0 + side, w)
    window = mask[src_r0:src_r1, src_c0:src_c1]
    out[src_r0 - r0 : src_r1 - r0, src_c0 - c0 : src_c1 - c0] = (window > 0).astype(np.float64)
    return out.reshape(-1)
