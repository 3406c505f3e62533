"""Randomized autoencoders and their stacking for unsupervised feature encoding.

A layer whose width differs from its input learns a ridge-regularized
reconstruction through a random orthonormal projection and encodes through
a sigmoid.  A layer of equal width is a bias-free linear rotation whose
weights are the transpose of its random rotation; nothing is solved, so
the round trip is lossless for any input.  Stacking feeds each layer the
encoding of the previous one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .elm import sigmoid
from .numerics import Rng, as_integer, as_matrix, orthonormal_random, ridge_solve, unit_row

_RESIDUAL_ROWS = 256  # rows of the reconstruction residual that ae_train holds at once


@dataclass(frozen=True)
class Autoencoder:
    beta: np.ndarray  # n_hidden x n_inputs; encode(x) = f(x @ beta.T)
    reconstruction_error: float  # relative Frobenius error on the training batch

    @property
    def n_inputs(self) -> int:
        return self.beta.shape[1]

    @property
    def mode(self) -> str:
        """compressed, equal or sparse: the layer's width against its input's."""
        rows, cols = self.beta.shape
        return "equal" if rows == cols else "compressed" if rows < cols else "sparse"


def ae_train(x, n_hidden: int, c: float, rng: Rng) -> Autoencoder:
    """Fit one autoencoder layer on x.

    Width != input: h = sigmoid(x a + b), computed in the one array x a
    returns, with orthonormal a and a unit-norm bias row, beta solved by
    ridge against x.  Width == input: h = x a with square orthogonal a
    (no bias, no squashing) and beta = a', which is the paper's pinv(h) x
    for full-column-rank x and encodes the training rows identically for
    any x; ``c`` is checked but unused.
    The error sums the residual h beta - x over row blocks; equal layers form h = x a per block.
    """
    x = as_matrix(x, "x")
    n_hidden = as_integer(n_hidden, "n_hidden")
    if isinstance(c, bool) or not isinstance(c, numbers.Real) or not c > 0:
        raise ValueError(f"c must be a positive real number (math.inf allowed), got {c!r}")
    if n_hidden < 1:
        raise ValueError("n_hidden must be >= 1")
    n_in = x.shape[1]
    a = orthonormal_random(n_in, n_hidden, rng.split(0))
    if n_hidden == n_in:
        beta = np.ascontiguousarray(a.T)
    else:
        h = x @ a
        h += unit_row(n_hidden, rng.split(1))
        h = sigmoid(h)
        beta = ridge_solve(h, x, c)
    squares = 0.0  # of the residual h beta - x, summed over row blocks
    for i in range(0, x.shape[0], _RESIDUAL_ROWS):
        xi = x[i : i + _RESIDUAL_ROWS]
        r = (xi @ a if n_hidden == n_in else h[i : i + _RESIDUAL_ROWS]) @ beta - xi
        squares += np.vdot(r, r)
    x_norm = np.linalg.norm(x)
    recon_err = float(np.sqrt(squares) / x_norm) if x_norm > 0 else 0.0
    return Autoencoder(beta, recon_err)


def ae_encode(ae: Autoencoder, x) -> np.ndarray:
    """Project x through the learned weights: f(x @ beta.T)."""
    x = as_matrix(x, "x", min_rows=0)
    if x.shape[1] != ae.n_inputs:
        raise ValueError(f"feature mismatch: layer expects {ae.n_inputs}, got {x.shape[1]}")
    z = x @ ae.beta.T
    return z if ae.mode == "equal" else sigmoid(z)


def stack_train(x, layer_sizes, cs, rng: Rng) -> tuple[tuple[Autoencoder, ...], np.ndarray]:
    """Train layer s on layers 1..s-1's encoding; returns the layers and their encoding of x (x for no layers)."""
    if len(layer_sizes) != len(cs):
        raise ValueError(
            f"need one c per layer: {len(layer_sizes)} layers, {len(cs)} cs"
        )
    cur = as_matrix(x, "x")
    layers = []
    for s, (m, c) in enumerate(zip(layer_sizes, cs)):
        ae = ae_train(cur, m, c, rng.split(s))
        layers.append(ae)
        cur = ae_encode(ae, cur)
    return tuple(layers), cur


def stack_transform(layers: tuple[Autoencoder, ...], x) -> np.ndarray:
    """Run x through every layer in turn; pure, row-wise independent."""
    cur = as_matrix(x, "x", min_rows=0)
    for ae in layers:
        cur = ae_encode(ae, cur)
    return cur
