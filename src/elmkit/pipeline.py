"""Composition of the autoencoder stack with a classifier head.

Training has two independent phases: the stack learns feature encodings
without seeing labels, then a head (fuzzy TSK, plain ridge, or a random
hidden-layer baseline) is fit on the encoded features.  Nothing is tuned
across the boundary.  Feature scaling to [0, 1] is frozen from the
training split.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .autoencoder import Autoencoder, stack_train, stack_transform
from .elm import ElmModel, elm_predict, elm_train, predict_labels
from .numerics import Rng, as_integer, as_matrix, ridge_solve
from .sit2 import Sit2Model, sit2_predict, sit2_train
from .type_reduction import It2RuleBase


@dataclass(frozen=True)
class PipelineConfig:
    layer_sizes: tuple[int, ...]  # autoencoder widths, input width excluded; () for none
    cs: tuple[float, ...]  # one ridge constant per layer plus one for the head
    head: str = "sit2"
    head_size: int = 40  # fuzzy rules for sit2, hidden nodes for elm; ridge ignores it
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(as_integer(m, "config layer width") for m in self.layer_sizes))
        if any(isinstance(c, bool) or not isinstance(c, numbers.Real) for c in self.cs):
            raise ValueError(f"config ridge constants must be numbers, got {list(self.cs)!r}")
        object.__setattr__(self, "cs", tuple(float(c) for c in self.cs))
        object.__setattr__(self, "head_size", as_integer(self.head_size, "config head_size"))
        object.__setattr__(self, "seed", as_integer(self.seed, "config seed"))
        if any(m < 1 for m in self.layer_sizes):
            raise ValueError("layer widths must be >= 1")
        if len(self.cs) != len(self.layer_sizes) + 1:
            raise ValueError(
                f"need {len(self.layer_sizes) + 1} ridge constants "
                f"(one per layer plus the head), got {len(self.cs)}"
            )
        if any(not c > 0 for c in self.cs):
            raise ValueError("every ridge constant must be positive")
        # a head name that is not a string, such as a JSON list, would be a TypeError in the lookup
        if not isinstance(self.head, str) or self.head not in HEADS:
            raise ValueError(f"unknown head {self.head!r}; expected one of {tuple(HEADS)}")
        least = 2 if self.head == "sit2" else 1  # a fuzzy head needs two rules
        if self.head != "ridge" and self.head_size < least:
            raise ValueError(f"head_size must be >= {least} for the {self.head} head, got {self.head_size}")

    def to_dict(self) -> dict:
        return {
            "layer_sizes": list(self.layer_sizes),
            "Cs": list(self.cs),
            "head": self.head,
            "head_size": self.head_size,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d) -> "PipelineConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        known = {"layer_sizes", "Cs", "head", "head_size", "seed"}
        extra = set(d) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        if "layer_sizes" not in d or "Cs" not in d:
            raise ValueError("config requires layer_sizes and Cs")
        if not all(isinstance(d[k], (list, tuple)) for k in ("layer_sizes", "Cs")):
            raise ValueError("config layer_sizes and Cs must be lists")
        try:
            # only the keys given, so the defaults live in the dataclass alone
            optional = {k: d[k] for k in ("head", "head_size", "seed") if k in d}
            return cls(layer_sizes=tuple(d["layer_sizes"]), cs=tuple(d["Cs"]), **optional)
        except TypeError as e:
            raise ValueError(f"malformed config: {e}") from None


@dataclass(frozen=True)
class FeatureScaler:
    """Per-feature affine map onto [0, 1], frozen from the training split."""

    offset: np.ndarray
    span: np.ndarray  # zero-range features get span 1 and map to 0

    @classmethod
    def fit(cls, x: np.ndarray) -> "FeatureScaler":
        lo = x.min(axis=0)
        span = x.max(axis=0) - lo
        span = np.where(span > 0.0, span, 1.0)
        return cls(lo, span)

    def transform(self, x: np.ndarray) -> np.ndarray:
        shifted = x - self.offset
        return np.divide(shifted, self.span, out=shifted)


@dataclass(frozen=True)
class TrainMetrics:
    stack_seconds: float
    head_seconds: float
    train_accuracy: float

    @property
    def total_seconds(self) -> float:
        return self.stack_seconds + self.head_seconds


@dataclass(frozen=True)
class HmlModel:
    scaler: FeatureScaler
    stack: tuple[Autoencoder, ...]
    head: object  # what HEADS[config.head].fit returns
    config: PipelineConfig
    metrics: TrainMetrics

    @property
    def n_features(self) -> int:
        return self.scaler.offset.size


class HeadKind(NamedTuple):
    """How one head is fit, scored, stored in a model file and rebuilt from it."""

    fit: Callable  # (features, one-hot t, head_size, c, rng) -> (head, its scores on the features)
    predict: Callable  # (head, features) -> scores
    arrays: tuple[str, ...]  # the array names a model file holds for it; the last has a column per class
    store: Callable  # head -> its arrays in that order
    rebuild: Callable  # (*arrays) -> head
    size: Callable  # (head, the header's head_size) -> the config's head_size
    n_inputs: Callable  # head -> the feature width it scores


def _ridge_train(feats, t, head_size, c, rng):
    """Ridge weights over the features and a bias column, and their scores on ``feats``."""
    xb = np.hstack([feats, np.ones((feats.shape[0], 1))])
    weights = ridge_solve(xb, t, c)
    return weights, xb @ weights


# the sit2 lambdas look each function up when called: perfbench's tracer swaps module
# attributes, and a table holding sit2_train and sit2_predict would hide those calls from it
HEADS = {
    "sit2": HeadKind(
        lambda feats, t, size, c, rng: sit2_train(feats, t, size, rng, c=c),
        lambda head, feats: sit2_predict(head, feats),
        ("head.centers", "head.sigma_lower", "head.sigma_upper", "head.consequents"),
        lambda h: (h.rules.centers, h.rules.sigma_lower, h.rules.sigma_upper, h.consequents),
        lambda centers, lower, upper, q: Sit2Model(It2RuleBase(centers, lower, upper), q),
        lambda head, size: head.n_rules,
        lambda head: head.rules.n_inputs,
    ),
    "ridge": HeadKind(
        _ridge_train,
        lambda weights, feats: np.hstack([feats, np.ones((feats.shape[0], 1))]) @ weights,
        ("head.weights",),
        lambda weights: (weights,),
        lambda weights: weights,
        lambda weights, size: size,  # ridge has no size, so the header's stands
        lambda weights: weights.shape[0] - 1,  # one row per feature, then the bias row
    ),
    "elm": HeadKind(
        elm_train,
        elm_predict,
        ("head.input_weights", "head.biases", "head.output_weights"),
        lambda head: (head.input_weights, head.biases, head.output_weights),
        ElmModel,
        lambda head, size: head.input_weights.shape[1],
        lambda head: head.input_weights.shape[0],
    ),
}


def one_hot(labels, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes})")
    return np.eye(n_classes)[labels]


def hml_train(x, labels, config: PipelineConfig) -> HmlModel:
    """Standardize, train the stack, then fit the head on encoded features."""
    x = as_matrix(x, "x")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != x.shape[0]:
        raise ValueError("one label per sample required")
    n_classes = int(labels.max()) + 1
    if n_classes < 2:
        raise ValueError("need >= 2 classes in the labels")
    scaler = FeatureScaler.fit(x)
    t0 = time.perf_counter()
    # no name holds the scaled copy, so it is freed when the stack returns, before the head allocates
    stack, feats = stack_train(scaler.transform(x), config.layer_sizes, config.cs[:-1], Rng(config.seed).split(0))
    t1 = time.perf_counter()
    fit = HEADS[config.head].fit
    head, scores = fit(feats, one_hot(labels, n_classes), config.head_size, config.cs[-1], Rng(config.seed).split(1))
    t2 = time.perf_counter()
    accuracy = float((predict_labels(scores) == labels).mean())
    metrics = TrainMetrics(t1 - t0, t2 - t1, accuracy)
    return HmlModel(scaler, stack, head, config, metrics)


def hml_predict(model: HmlModel, x) -> np.ndarray:
    """Score matrix for x; argmax of a row is the predicted class."""
    x = as_matrix(x, "x", min_rows=0)
    if x.shape[1] != model.n_features:
        raise ValueError(
            f"feature mismatch: model expects {model.n_features}, got {x.shape[1]}"
        )
    feats = stack_transform(model.stack, model.scaler.transform(x))
    return HEADS[model.config.head].predict(model.head, feats)
