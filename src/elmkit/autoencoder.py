"""Randomized autoencoders and their stacking for unsupervised feature encoding.

A layer whose width differs from its input learns a ridge-regularized
reconstruction through a random orthonormal projection and encodes through
a sigmoid.  A layer of equal width is a bias-free linear rotation whose
weights are the transpose of its random rotation; nothing is solved, so
the round trip is lossless for any input.  Stacking feeds each layer the
encoding of the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elm import sigmoid
from .numerics import Rng, as_matrix, orthonormal_random, ridge_solve, unit_row

# the activation each layer mode encodes with: only equal width skips the sigmoid
ACTIVATIONS = {"compressed": "sigmoid", "equal": "linear", "sparse": "sigmoid"}


@dataclass(frozen=True)
class Autoencoder:
    beta: np.ndarray  # n_hidden x n_inputs; encode(x) = f(x @ beta.T)
    mode: str  # compressed | equal | sparse
    c: float
    reconstruction_error: float  # relative Frobenius error on the training batch
    beta_orthogonality_gap: float  # max |beta' beta - I|; rounding-level for equal width

    @property
    def n_inputs(self) -> int:
        return self.beta.shape[1]


def ae_train(x, n_hidden: int, c: float, rng: Rng) -> Autoencoder:
    """Fit one autoencoder layer on x.

    Width != input: h = sigmoid(x a + b) with column-orthonormal a and a
    unit-norm bias row, beta solved by ridge against x.  Width == input:
    h = x a with square orthogonal a (no bias, no squashing) and beta = a',
    which is the paper's pinv(h) x for full-column-rank x and encodes the
    training rows identically for any x; ``c`` is recorded but unused.
    """
    x = as_matrix(x, "x")
    if n_hidden < 1:
        raise ValueError("n_hidden must be >= 1")
    n_in = x.shape[1]
    if n_hidden == n_in:
        a = orthonormal_random(n_in, n_in, rng.split(0))
        h = x @ a  # only for the diagnostics below
        beta = np.ascontiguousarray(a.T)
        mode = "equal"
    else:
        if n_hidden < n_in:
            a = orthonormal_random(n_in, n_hidden, rng.split(0))
            mode = "compressed"
        else:
            a = orthonormal_random(n_hidden, n_in, rng.split(0)).T
            mode = "sparse"
        b = unit_row(n_hidden, rng.split(1))
        h = sigmoid(x @ a + b)
        beta = ridge_solve(h, x, c)
    x_norm = np.linalg.norm(x)
    recon_err = float(np.linalg.norm(h @ beta - x) / x_norm) if x_norm > 0 else 0.0
    g = beta.T @ beta  # max |beta' beta - I| in this one n_in x n_in buffer
    g.flat[:: n_in + 1] -= 1.0
    gap = float(np.abs(g, out=g).max())
    return Autoencoder(beta, mode, float(c), recon_err, gap)


def ae_encode(ae: Autoencoder, x) -> np.ndarray:
    """Project x through the learned weights: f(x @ beta.T)."""
    x = as_matrix(x, "x", min_rows=0)
    if x.shape[1] != ae.n_inputs:
        raise ValueError(f"feature mismatch: layer expects {ae.n_inputs}, got {x.shape[1]}")
    z = x @ ae.beta.T
    return sigmoid(z) if ACTIVATIONS[ae.mode] == "sigmoid" else z


@dataclass(frozen=True)
class FeatureStack:
    layers: tuple[Autoencoder, ...]


def stack_train(x, layer_sizes, cs, rng: Rng) -> tuple[FeatureStack, np.ndarray]:
    """Train layer s on layers 1..s-1's encoding; returns the stack and its encoding of x (x for no layers)."""
    layer_sizes = [int(m) for m in layer_sizes]
    cs = [float(c) for c in cs]
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
    return FeatureStack(tuple(layers)), cur


def stack_transform(stack: FeatureStack, x) -> np.ndarray:
    """Run x through every layer; pure, row-wise independent."""
    cur = as_matrix(x, "x", min_rows=0)
    for ae in stack.layers:
        cur = ae_encode(ae, cur)
    return cur
