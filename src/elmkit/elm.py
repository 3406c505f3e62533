"""Single-hidden-layer extreme learning machine with a ridge-solved readout.

Hidden weights and biases are random and never tuned; only the linear
readout is fit, in closed form.  This is the baseline classifier and
the pipeline's ``elm`` head; the autoencoders reuse only ``sigmoid``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng, as_integer, as_matrix, ridge_solve


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)), computed in the float64 array ``z``, which it overwrites and returns."""
    # clip keeps exp from overflowing; the function saturates there anyway
    np.clip(z, -500.0, 500.0, out=z)
    np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


@dataclass(frozen=True)
class ElmModel:
    input_weights: np.ndarray  # n_features x n_hidden
    biases: np.ndarray  # n_hidden
    output_weights: np.ndarray  # n_hidden x n_classes

    def __post_init__(self):
        w, b, out = self.input_weights, self.biases, self.output_weights
        if w.ndim != 2 or b.shape != w.shape[1:] or out.ndim != 2 or out.shape[0] != w.shape[1]:
            raise ValueError(f"elm weights {w.shape}, biases {b.shape} and output weights {out.shape} do not chain")


def elm_train(x, t, n_hidden: int, c: float, rng: Rng) -> tuple[ElmModel, np.ndarray]:
    """Train on one-hot targets t (0/1, one 1 per row) with a sigmoid hidden layer.

    Returns the model and its scores on x.  Hidden weights are uniform in
    [-1, 1] and biases uniform in [0, 1]; orthogonal projections are
    reserved for the autoencoders.  Inputs are expected to be standardized
    to [0, 1] per feature by the caller.
    """
    x = as_matrix(x, "x")
    t = as_matrix(t, "t")
    if as_integer(n_hidden, "n_hidden") < 1:
        raise ValueError("n_hidden must be >= 1")
    if t.shape[1] < 2:
        raise ValueError("need >= 2 classes: target matrix has a single column")
    if x.shape[0] != t.shape[0]:
        raise ValueError(f"row mismatch: x has {x.shape[0]} rows, t has {t.shape[0]}")
    gen = rng.generator()
    a = gen.uniform(-1.0, 1.0, size=(x.shape[1], n_hidden))
    b = gen.uniform(0.0, 1.0, size=n_hidden)
    h = x @ a
    h += b
    h = sigmoid(h)
    beta = ridge_solve(h, t, c)
    return ElmModel(a, b, beta), h @ beta


def elm_predict(model: ElmModel, x) -> np.ndarray:
    """Score matrix for x; the predicted label of a row is its argmax column."""
    x = as_matrix(x, "x", min_rows=0)
    if x.shape[1] != model.input_weights.shape[0]:
        raise ValueError(
            f"feature mismatch: model expects {model.input_weights.shape[0]}, got {x.shape[1]}"
        )
    h = x @ model.input_weights
    h += model.biases
    return sigmoid(h) @ model.output_weights


def predict_labels(scores) -> np.ndarray:
    """Argmax decode; ties resolve to the lowest class index."""
    scores = as_matrix(scores, "scores", min_rows=0)
    return np.argmax(scores, axis=1)
