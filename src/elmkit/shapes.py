"""Synthetic colored-shape frames standing in for a camera object dataset.

Frames hold one red-family shape (box, circle, triangle, or an irregular
polygon) on a dark background, with seeded hue jitter and additive pixel
noise.  Feeding them through the segmentation pipeline yields binary
patches, which is how the bundled 4-class benchmark dataset is built.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .imaging import extract_patch, hsv_to_rgb_units, segment_object
from .numerics import Rng

SHAPE_KINDS = ("box", "circle", "triangle", "irregular")

# the renderer works in reds; segmentation selects this wraparound band
HUE_BAND = (330.0, 30.0)


@dataclass(frozen=True)
class ShapePose:
    scale: float  # circumscribed radius in pixels
    rotation: float  # radians
    offset: tuple[int, int]  # (row, col) center


def _polygon_vertices(kind: str, pose: ShapePose, gen) -> np.ndarray:
    if kind == "box":
        angles = pose.rotation + np.deg2rad([45.0, 135.0, 225.0, 315.0])
        radii = np.full(4, pose.scale)
    elif kind == "triangle":
        angles = pose.rotation + np.deg2rad([90.0, 210.0, 330.0])
        radii = np.full(3, pose.scale)
    elif kind == "irregular":
        n = 11
        angles = pose.rotation + np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        angles = angles + gen.uniform(-0.15, 0.15, n)
        radii = pose.scale * gen.uniform(0.55, 1.0, n)
    else:
        raise ValueError(f"unknown shape kind {kind!r}")
    rows = pose.offset[0] - radii * np.sin(angles)
    cols = pose.offset[1] + radii * np.cos(angles)
    return np.stack([rows, cols], axis=1)


def _fill_polygon(vertices: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Even-odd rasterization by horizontal-ray crossing counts."""
    h, w = shape
    rr, cc = np.arange(h, dtype=np.float64)[:, None], np.arange(w, dtype=np.float64)[None, :]
    inside = np.zeros(shape, dtype=bool)
    n = len(vertices)
    for i in range(n):
        r1, c1 = vertices[i]
        r2, c2 = vertices[(i + 1) % n]
        if r1 == r2:
            continue
        straddles = (rr >= min(r1, r2)) & (rr < max(r1, r2))
        cross_col = c1 + (rr - r1) * (c2 - c1) / (r2 - r1)
        inside ^= straddles & (cc < cross_col)
    return inside


def synth_shape(kind: str, pose: ShapePose, noise_level: float, rng: Rng, frame_shape=(120, 120)):
    """Render one frame; returns its (h, w, 3) uint8 RGB array and the class index.

    The same (kind, pose, noise_level, rng, frame_shape) always produces an
    identical frame.  ``noise_level`` in [0, 1] scales the additive pixel
    noise and widens the hue jitter.
    """
    if kind not in SHAPE_KINDS:
        raise ValueError(f"unknown shape kind {kind!r}; expected one of {SHAPE_KINDS}")
    if not pose.scale > 0.0:
        raise ValueError("degenerate pose: scale must be positive")
    h, w = int(frame_shape[0]), int(frame_shape[1])
    r0, c0 = pose.offset
    if not (0 <= r0 < h and 0 <= c0 < w):
        raise ValueError(f"pose offset {pose.offset} is outside the {h}x{w} frame")
    if not 0.0 <= noise_level <= 1.0:
        raise ValueError("noise_level must be in [0, 1]")
    gen = rng.generator()
    if kind == "circle":
        rr, cc = np.arange(h, dtype=np.float64)[:, None], np.arange(w, dtype=np.float64)[None, :]
        inside = (rr - r0) ** 2 + (cc - c0) ** 2 <= pose.scale**2
    else:
        inside = _fill_polygon(_polygon_vertices(kind, pose, gen), (h, w))
    hue = gen.uniform(-4.0, 4.0) + noise_level * gen.uniform(-14.0, 14.0)
    sat = 0.88 + gen.uniform(-0.06, 0.06)
    val = 0.82 + gen.uniform(-0.08, 0.08)
    r, g, b = hsv_to_rgb_units(hue % 360.0, sat, val)
    palette = np.array([[18.0, 18.0, 18.0], np.array([r, g, b]) * 255.0])  # uniform dark background, shape color
    frame = np.take(palette, inside.view(np.uint8), axis=0)
    if noise_level > 0.0:
        # gen.normal(0.0, sigma) returns 0.0 + sigma * z from the same draws; adding
        # 0.0 only turns -0.0 into +0.0, which adding it to the frame does anyway
        noise = gen.standard_normal(frame.shape)
        noise *= 55.0 * noise_level
        frame += noise
    np.rint(frame, out=frame)
    return np.clip(frame, 0, 255, out=frame).astype(np.uint8), SHAPE_KINDS.index(kind)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _patch_of(kind: str, pose: ShapePose, noise_level: float, rng: Rng, frame_shape, side: int, keep: bool):
    """Render, segment and patch one frame; returns (patch, frame if ``keep``)."""
    frame, _ = synth_shape(kind, pose, noise_level, rng, frame_shape)
    mask, centroid = segment_object(frame, *HUE_BAND)
    return extract_patch(mask, centroid, side), frame if keep else None


def synth_shape_dataset(
    n_per_class: int,
    noise_level: float,
    rng: Rng,
    frame_shape=(120, 120),
    side: int = 52,
    keep_frames: int = 0,
):
    """Generate frames for every shape kind and push them through segmentation.

    Returns (dataset, sample_frames): a LabeledDataset of flattened binary
    patches plus up to ``keep_frames`` rendered frames per class for
    inspection.  Frames are rendered side by side, one thread per CPU the
    process may use; each frame draws from its own stream, so the bytes do
    not depend on that count.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    if side < 1:  # before x is sized from it
        raise ValueError(f"side must be >= 1, got {side}")
    if keep_frames < 0:
        raise ValueError(f"keep_frames must be >= 0, got {keep_frames}")
    h, w = int(frame_shape[0]), int(frame_shape[1])
    # under 32 px, scale_hi falls below the 8 px scale floor
    if min(h, w) < 32:
        raise ValueError(f"frame {h}x{w} is too small for the pose margins")
    scale_hi = min(h, w) / 4.0
    scale_lo = max(8.0, scale_hi * 0.55)
    margin = int(np.ceil(scale_hi)) + 6
    gen = rng.split(0).generator()
    jobs = []  # _patch_of's arguments, class-major like the poses' draws
    for kind in SHAPE_KINDS:
        for i in range(n_per_class):
            pose = ShapePose(
                scale=float(gen.uniform(scale_lo, scale_hi)),
                rotation=float(gen.uniform(0.0, 2.0 * np.pi)),
                offset=(
                    int(gen.integers(margin, h - margin)),
                    int(gen.integers(margin, w - margin)),
                ),
            )
            jobs.append((kind, pose, noise_level, rng.split(1 + len(jobs)), frame_shape, side, i < keep_frames))
    # the noise draw and numpy's loops over whole frames release the GIL;
    # imported here because it loads logging, which `import elmkit` should not pay for
    from concurrent.futures import ThreadPoolExecutor

    x = np.empty((len(jobs), side * side))
    samples = []
    with ThreadPoolExecutor(min(len(jobs), _usable_cpus())) as pool:
        # map yields in frame order, so the first failing frame raises, as a serial
        # loop would, and the frames not yet started are cancelled; it drops each
        # result once read, so every patch is held once, in its row of x
        for row, (patch, frame) in zip(x, pool.map(_patch_of, *zip(*jobs))):
            row[:] = patch
            if frame is not None:
                samples.append(frame)
    labels = np.repeat(np.arange(len(SHAPE_KINDS)), n_per_class)
    return LabeledDataset(x, labels, SHAPE_KINDS), samples
