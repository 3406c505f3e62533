"""Seeded stand-in for the handwritten-digits workload.

Each of the ten classes owns three stroke prototypes on a 28 x 28 grid,
drawn once from a fixed problem seed, so every run poses the same
problem.  A sample picks one prototype of its class, shifts it by up to
two pixels, dims it, blends in a prototype of another class and adds
pixel noise; values are clipped to [0, 1] like scaled digit images.  The
blend and the shifts keep the classes overlapping, so the problem is
learnable but not separable by a linear readout of the raw pixels.
"""

from __future__ import annotations

import numpy as np

SIDE = 28
N_CLASSES = 10
PROTOTYPES_PER_CLASS = 3
MAX_SHIFT = 2
PROBLEM_SEED = 784_10  # fixes the prototypes; the sample seed varies the rows


def _stroke_image(segments: np.ndarray, width: float) -> np.ndarray:
    """Max over segments of a Gaussian falloff in the distance to each segment."""
    rr, cc = np.meshgrid(np.arange(SIDE, dtype=np.float64), np.arange(SIDE, dtype=np.float64), indexing="ij")
    img = np.zeros((SIDE, SIDE))
    for (r0, c0), (r1, c1) in segments:
        dr, dc = r1 - r0, c1 - c0
        t = ((rr - r0) * dr + (cc - c0) * dc) / max(dr * dr + dc * dc, 1e-12)
        t = np.clip(t, 0.0, 1.0)
        d2 = (rr - (r0 + t * dr)) ** 2 + (cc - (c0 + t * dc)) ** 2
        img = np.maximum(img, np.exp(-d2 / (2.0 * width**2)))
    return img


def prototypes() -> np.ndarray:
    """(N_CLASSES, PROTOTYPES_PER_CLASS, SIDE, SIDE) stroke images, identical on every call."""
    gen = np.random.default_rng(PROBLEM_SEED)
    out = np.empty((N_CLASSES, PROTOTYPES_PER_CLASS, SIDE, SIDE))
    for c in range(N_CLASSES):
        # a class skeleton of four connected strokes; its prototypes perturb the joints
        skeleton = gen.uniform(6.0, SIDE - 7.0, size=(5, 2))
        for k in range(PROTOTYPES_PER_CLASS):
            joints = skeleton + gen.normal(0.0, 1.6, size=skeleton.shape)
            segments = np.stack([joints[:-1], joints[1:]], axis=1)
            out[c, k] = _stroke_image(segments, width=gen.uniform(0.9, 1.4))
    return out


def make_rows(n_rows: int, seed, blend: float = 0.8, noise: float = 0.25):
    """Return (x, labels): n_rows x 784 floats in [0, 1] and balanced class labels."""
    if n_rows < N_CLASSES:
        raise ValueError(f"need at least {N_CLASSES} rows")
    protos = prototypes()
    gen = np.random.default_rng(seed)
    labels = gen.permutation(np.arange(n_rows) % N_CLASSES)
    picks = gen.integers(0, PROTOTYPES_PER_CLASS, n_rows)
    others = (labels + gen.integers(1, N_CLASSES, n_rows)) % N_CLASSES
    other_picks = gen.integers(0, PROTOTYPES_PER_CLASS, n_rows)
    shifts = gen.integers(-MAX_SHIFT, MAX_SHIFT + 1, size=(n_rows, 2))
    dim = gen.uniform(0.7, 1.0, n_rows)
    mix = gen.uniform(0.0, blend, n_rows)
    pad = MAX_SHIFT
    padded = np.pad(protos, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    x = np.empty((n_rows, SIDE, SIDE))
    for i in range(n_rows):
        r, c = pad + shifts[i, 0], pad + shifts[i, 1]
        own = padded[labels[i], picks[i], r : r + SIDE, c : c + SIDE]
        x[i] = dim[i] * own + mix[i] * protos[others[i], other_picks[i]]
    x += gen.normal(0.0, noise, x.shape)
    np.clip(x, 0.0, 1.0, out=x)
    return x.reshape(n_rows, SIDE * SIDE), labels.astype(np.int64)
