"""Seeded random streams and the dense linear-algebra kernels shared by all models.

Every training routine in the package reduces to a handful of primitives:
a regularized least-squares solve and random orthonormal projections
drawn from a reproducible counter-based stream; a Moore-Penrose inverse
is kept beside them for library use.
They live here so their numerical behaviour is pinned down in one place.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """A linear system could not be solved as posed (rank deficiency, divergence)."""


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer; decorrelates derived stream ids
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class Rng:
    """Immutable handle on a counter-based random stream.

    The same (seed, stream) pair yields bit-identical draws on every run and
    platform.  ``generator()`` always starts from the beginning of the
    stream, so functions holding an ``Rng`` stay pure; use ``split`` to hand
    independent streams to sub-tasks (one per autoencoder layer, one per
    training phase, ...).
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def split(self, child: int) -> "Rng":
        return Rng(self.seed, _mix64((self.stream * 0x9E3779B97F4A7C15 + child + 1) & _MASK64))


def as_integer(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integral number is a ValueError, not truncated."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def as_matrix(a, name: str = "matrix", min_rows: int = 1) -> np.ndarray:
    """Coerce to a finite float64 2-D array, validating shape."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < min_rows or m.shape[1] < 1:
        raise ValueError(f"{name} has degenerate shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def check_ridge_constant(c: float) -> None:
    """Refuse a ridge constant that is not positive (NaN included); math.inf is allowed."""
    if not c > 0:
        raise ValueError("c must be positive (math.inf allowed)")


def _solve_spd(build, rhs: np.ndarray, c: float, out: np.ndarray | None = None) -> np.ndarray:
    """Solve (G + I/c) x = rhs by Cholesky with a jittered retry ladder.

    ``build(g)`` writes G, at least its diagonal and upper triangle, into the
    C-ordered n x n ``g`` (``out``, or a fresh buffer); ``g.T`` is G in Fortran
    order, factored in place from its lower triangle, so the strict lower
    triangle of ``g`` is left to the caller.  Each retry calls ``build`` again.

    The ridge term keeps the system positive definite except in pathological
    cases; on failure the diagonal is jittered by 1e-10 * trace/n, doubled up
    to three times, and a RuntimeWarning names the jitter that succeeded.
    With c = inf no jitter is applied: a singular system is reported instead
    of silently regularized.
    """
    check_ridge_constant(c)
    import scipy.linalg  # imported here: scoring and segmentation solve nothing

    n = rhs.shape[0]
    g = np.empty((n, n)) if out is None else out
    ridge = 0.0 if math.isinf(c) else 1.0 / c
    jitter = 0.0
    for attempt in range(4):
        build(g)
        trace = g.trace()
        g.flat[:: n + 1] += ridge + jitter
        try:
            cf = scipy.linalg.cho_factor(g.T, lower=True, overwrite_a=True, check_finite=False)
            if ridge + jitter == 0.0:
                # rounding can let potrf succeed on a singular matrix; vet the factor
                d = np.abs(np.diag(cf[0]))
                if d.min() ** 2 <= 16.0 * n * np.finfo(np.float64).eps * d.max() ** 2:
                    raise np.linalg.LinAlgError("factor is numerically rank deficient")
            if jitter:
                msg = f"Cholesky succeeded only after adding jitter {jitter:.3e} to the diagonal"
                warnings.warn(msg, RuntimeWarning, stacklevel=2)
            return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
        except np.linalg.LinAlgError:
            if math.isinf(c):
                raise NumericalError(
                    "system is rank deficient with c = inf; supply a finite c"
                ) from None
            jitter = 1e-10 * (trace / n if trace > 0 else 1.0) * 2.0**attempt
    raise NumericalError("Cholesky failed even after jittered retries")


def ridge_solve(h: np.ndarray, t: np.ndarray, c: float) -> np.ndarray:
    """Minimize ||h b - t||^2 + (1/c) ||b||^2 over b.

    Solves the normal equations (I/c + h'h) b = h't when the system is tall
    (cols <= rows) and the dual form b = h'(I/c + hh')^{-1} t when it is
    wide.  ``c`` may be ``math.inf`` for plain least squares, which then
    requires full rank.
    """
    h = as_matrix(h, "h")
    t = as_matrix(t, "t")
    if h.shape[0] != t.shape[0]:
        raise ValueError(f"row mismatch: h has {h.shape[0]} rows, t has {t.shape[0]}")
    rows, cols = h.shape
    if cols <= rows:
        b = _solve_spd(lambda g: np.matmul(h.T, h, out=g), h.T @ t, c)
    else:
        b = h.T @ _solve_spd(lambda g: np.matmul(h, h.T, out=g), t, c)
    if not np.all(np.isfinite(b)):
        raise NumericalError("ridge solution contains non-finite entries")
    # canonical row-major layout so downstream matmuls take identical BLAS
    # paths whether the weights are fresh or deserialized
    return np.ascontiguousarray(b)


def pseudo_inverse(h: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse by SVD, for any shape and rank."""
    import scipy.linalg

    return scipy.linalg.pinv(as_matrix(h, "h"))


def orthonormal_random(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """Orthonormal columns, or rows when wide, from the QR of standard-normal draws."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    g = rng.generator().standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(g)
    # canonical sign so the map from seed to matrix is unambiguous
    q = q * np.where(np.diag(r) >= 0.0, 1.0, -1.0)
    return q.T if cols > rows else q


def unit_row(n: int, rng: Rng) -> np.ndarray:
    """Unit-norm row vector of n >= 1 standard-normal draws (b b' = 1)."""
    v = rng.generator().standard_normal(n)
    return v / np.linalg.norm(v)
