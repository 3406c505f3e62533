"""Synthetic colored-shape frames standing in for a camera object dataset.

Frames hold one red-family shape (box, circle, triangle, or an irregular
polygon) on a dark background, with seeded hue jitter and additive pixel
noise.  Feeding them through the segmentation pipeline yields binary
patches, which is how the bundled 4-class benchmark dataset is built.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset
from .imaging import extract_patch, segment_frames
from .numerics import Rng

SHAPE_KINDS = ("box", "circle", "triangle", "irregular")

# the renderer works in reds; segmentation selects this wraparound band
HUE_BAND = (330.0, 30.0)

# frames a pool task renders into one stack and segments in one call.  On a
# 2-CPU host, runs of 8 beat runs of 4 by a tenth but raised the frame
# benchmark's peak RSS by 7% where 4 raised it by 2%; runs of 1 gained nothing
FRAMES_PER_TASK = 4


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
    else:  # "irregular", the one kind left once synth_shape has checked it
        n = 11
        angles = pose.rotation + np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        angles = angles + gen.uniform(-0.15, 0.15, n)
        radii = pose.scale * gen.uniform(0.55, 1.0, n)
    rows = pose.offset[0] - radii * np.sin(angles)
    cols = pose.offset[1] + radii * np.cos(angles)
    return np.stack([rows, cols], axis=1)


def _unit_rgb(hue: float, sat: float, val: float):
    """Unit RGB of an HSV colour, the hue in degrees, by the hexcone sector formula."""
    h = hue % 360.0 / 60.0
    i = math.floor(h)
    f = h - i
    p, q, t = val * (1.0 - sat), val * (1.0 - sat * f), val * (1.0 - sat * (1.0 - f))
    # a tiny negative hue wraps to 360.0, h to 6.0, and sector 6 is sector 0
    return ((val, t, p), (q, val, p), (p, val, t), (p, q, val), (t, p, val), (val, p, q))[i % 6]


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
    # uniform dark background, shape color
    palette = np.array([[18.0, 18.0, 18.0], np.array(_unit_rgb(hue, sat, val)) * 255.0])
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
    inspection.  Runs of ``FRAMES_PER_TASK`` frames are rendered and
    segmented side by side, one thread per CPU the process may use; each
    frame draws from its own stream, so the bytes do not depend on that
    count.
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
    jobs = []  # (kind, pose, stream, kept) per frame, class-major like the poses' draws
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
            jobs.append((kind, pose, rng.split(1 + len(jobs)), i < keep_frames))
    x = np.empty((len(jobs), side * side))

    def patch_run(start: int) -> list:
        """Render the run of frames from ``start`` into one stack, segment it in one
        call, write each frame's patch into its row of x; returns the kept frames."""
        run = jobs[start : start + FRAMES_PER_TASK]
        frames = [synth_shape(kind, pose, noise_level, stream, frame_shape)[0] for kind, pose, stream, _ in run]
        for row, (mask, centroid) in zip(x[start:], segment_frames(np.stack(frames), *HUE_BAND)):
            row[:] = extract_patch(mask, centroid, side)
        return [frame for frame, (*_, kept) in zip(frames, run) if kept]

    # the noise draw and numpy's loops over whole frames release the GIL;
    # imported here because it loads logging, which `import elmkit` should not pay for
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, len(jobs), FRAMES_PER_TASK)
    samples = []
    with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
        # map yields in frame order, so the first failing run raises, as a serial
        # loop would, and the runs not yet started are cancelled
        for kept in pool.map(patch_run, starts):
            samples += kept
    labels = np.repeat(np.arange(len(SHAPE_KINDS)), n_per_class)
    return LabeledDataset(x, labels, SHAPE_KINDS), samples
