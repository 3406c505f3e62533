"""Evaluation: confusion counts, accuracy, and vote-based stream decisions."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .data import write_atomic
from .numerics import Rng, as_matrix


def confusion_counts(truth, predicted, n_classes: int) -> np.ndarray:
    """Square int64 counts of (true, predicted) class pairs: rows are truth, columns predictions."""
    truth = np.asarray(truth, dtype=np.int64).ravel()
    predicted = np.asarray(predicted, dtype=np.int64).ravel()
    if truth.size != predicted.size:
        raise ValueError("truth and predicted must align")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (truth, predicted), 1)
    return counts


def accuracy(counts: np.ndarray) -> float:
    """Overall accuracy: trace over total."""
    if counts.sum() == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(counts) / counts.sum())


def per_class_accuracy(counts: np.ndarray) -> np.ndarray:
    """One-vs-rest (TP + TN) / total for each class."""
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    tn = total - tp - fp - fn
    return (tp + tn) / total


def write_confusion_csv(counts: np.ndarray, class_names, path) -> None:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([class_names, *(map(int, row) for row in counts)])
    write_atomic(path, [out.getvalue().encode()])


@dataclass(frozen=True)
class ActiveDecision:
    fractions: np.ndarray  # per-class vote share over the frames used
    decision: int | None  # None when the top share is below the threshold
    frames_used: int


def active_classify(frame_scores, t_c: float, window: int) -> ActiveDecision:
    """Vote over per-frame argmax decisions and decide once the share clears t_c.

    Consumes at most ``window`` frames from the stream.  The caller extends
    the stream and calls again when the result is undecided.
    """
    scores = as_matrix(frame_scores, "frame_scores", min_rows=0)
    if scores.shape[0] == 0:
        raise ValueError("empty stream: need at least one frame of scores")
    if not 0.0 < t_c <= 1.0:
        raise ValueError("t_c must be in (0, 1]")
    if window < 1:
        raise ValueError("window must be >= 1")
    used = min(scores.shape[0], window)
    votes = np.bincount(np.argmax(scores[:used], axis=1), minlength=scores.shape[1])
    fractions = votes / used
    top = int(np.argmax(fractions))
    decision = top if fractions[top] >= t_c else None
    return ActiveDecision(fractions, decision, used)


def simulate_streams(
    scores,
    labels,
    t_c: float,
    window: int,
    episodes_per_class: int,
    rng: Rng,
) -> list[tuple[int, ActiveDecision]]:
    """Replay per-frame scores as per-object streams.

    Each episode picks ``window`` frames of one true class (with
    replacement, seeded) and runs the vote; returns (true class, decision)
    pairs across all classes.
    """
    scores = as_matrix(scores, "scores")
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if labels.size != scores.shape[0]:
        raise ValueError("one label per score row required")
    gen = rng.generator()
    episodes = []
    for cls in range(scores.shape[1]):
        pool = np.flatnonzero(labels == cls)
        if pool.size == 0:
            continue
        for _ in range(episodes_per_class):
            picks = gen.choice(pool, size=window, replace=True)
            episodes.append((cls, active_classify(scores[picks], t_c, window)))
    return episodes
