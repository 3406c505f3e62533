import csv

import numpy as np
import pytest

from elmkit.metrics import (
    ActiveDecision,
    accuracy,
    active_classify,
    confusion_counts,
    per_class_accuracy,
    simulate_streams,
    write_confusion_csv,
)
from elmkit.numerics import Rng


def test_diagonal_matrix_is_perfect():
    cm = np.diag([5, 3, 2])
    assert accuracy(cm) == 1.0
    np.testing.assert_array_equal(per_class_accuracy(cm), [1.0, 1.0, 1.0])


def test_zero_diagonal_two_class_is_zero():
    cm = np.array([[0, 4], [4, 0]])
    assert accuracy(cm) == 0.0


def test_hand_counted_two_class():
    cm = np.array([[3, 1], [1, 3]])
    assert accuracy(cm) == pytest.approx(0.75)
    np.testing.assert_allclose(per_class_accuracy(cm), [0.75, 0.75])


def test_accuracy_equals_one_minus_offdiagonal_share():
    gen = Rng(3).generator()
    counts = gen.integers(0, 30, (4, 4))
    counts[0, 0] += 1  # keep total positive
    off = counts.sum() - np.trace(counts)
    assert accuracy(counts) == pytest.approx(1.0 - off / counts.sum())


def test_from_predictions_counts_and_totals():
    cm = confusion_counts([0, 0, 1, 2], [0, 1, 1, 2], 3)
    assert cm.dtype == np.int64 and cm.shape == (3, 3)
    assert cm.sum() == 4
    assert cm[0, 1] == 1 and cm[1, 1] == 1


def test_empty_matrix_rejected():
    cm = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError, match="empty"):
        accuracy(cm)
    with pytest.raises(ValueError, match="empty"):
        per_class_accuracy(cm)


def test_confusion_csv(tmp_path):
    path = tmp_path / "cm.csv"
    write_confusion_csv(np.array([[2, 0], [1, 3]]), ("cat", "dog"), path)
    assert path.read_text() == "cat,dog\n2,0\n1,3\n"


def test_confusion_csv_quotes_class_names_that_need_it(tmp_path):
    path = tmp_path / "cm.csv"
    names = ("x,y", 'say "hi"', "z")
    write_confusion_csv(np.arange(9).reshape(3, 3), names, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [list(names), ["0", "1", "2"], ["3", "4", "5"], ["6", "7", "8"]]


def one_hot_scores(labels, n_classes=4):
    return np.eye(n_classes)[np.asarray(labels)]


def test_unanimous_stream_decides():
    scores = one_hot_scores([2] * 120)
    d = active_classify(scores, t_c=0.82, window=120)
    assert d.decision == 2
    assert d.fractions[2] == 1.0
    assert d.frames_used == 120


def test_hundred_of_120_decides():
    scores = one_hot_scores([1] * 100 + [0] * 20)
    d = active_classify(scores, 0.82, 120)
    assert d.fractions[1] == pytest.approx(100 / 120)
    assert d.decision == 1


def test_ninety_of_120_is_undecided():
    scores = one_hot_scores([1] * 90 + [0] * 30)
    d = active_classify(scores, 0.82, 120)
    assert d.fractions[1] == pytest.approx(0.75)
    assert d.decision is None


def test_window_caps_frames_used():
    scores = one_hot_scores([0] * 50)
    d = active_classify(scores, 0.9, 20)
    assert d.frames_used == 20


def test_short_stream_uses_available_frames():
    scores = one_hot_scores([3] * 7)
    d = active_classify(scores, 0.9, 120)
    assert d.frames_used == 7 and d.decision == 3


def test_decision_invariant_under_positive_rescale():
    gen = Rng(8).generator()
    scores = gen.uniform(0, 1, (40, 3))
    a = active_classify(scores, 0.5, 40)
    b = active_classify(scores * 123.4, 0.5, 40)
    assert a.decision == b.decision
    np.testing.assert_array_equal(a.fractions, b.fractions)


def test_empty_stream_rejected():
    with pytest.raises(ValueError, match="empty stream"):
        active_classify(np.zeros((0, 3)), 0.8, 10)


def test_bad_threshold_and_window():
    scores = one_hot_scores([0])
    with pytest.raises(ValueError, match="t_c"):
        active_classify(scores, 0.0, 10)
    with pytest.raises(ValueError, match="window"):
        active_classify(scores, 0.5, 0)


def test_simulated_streams_decide_for_reliable_scores():
    gen = Rng(11).generator()
    labels = np.repeat(np.arange(3), 200)
    scores = one_hot_scores(labels, 3) + gen.normal(0, 0.1, (600, 3))
    episodes = simulate_streams(scores, labels, 0.82, 120, 10, Rng(5))
    assert len(episodes) == 30
    decided = [d for _, d in episodes if d.decision is not None]
    correct = [cls for cls, d in episodes if d.decision == cls]
    assert len(decided) == 30 and len(correct) == 30
