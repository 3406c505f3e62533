"""Cross-module runs that are informative but slower than the unit suites."""

import numpy as np

from elmkit.autoencoder import stack_train, stack_transform
from elmkit.elm import elm_predict, elm_train, predict_labels
from elmkit.numerics import Rng
from elmkit.pipeline import FeatureScaler, one_hot


def test_encoded_features_match_or_beat_raw_pixels_at_equal_budget(shapes_benchmark):
    """Paired run: same hidden budget, raw pixels vs stacked encodings."""
    train = shapes_benchmark["train"]
    test = shapes_benchmark["test"]
    scaler = FeatureScaler.fit(train.x)
    xs, ts = scaler.transform(train.x), scaler.transform(test.x)
    t = one_hot(train.labels, 4)
    budget = 400

    raw, _ = elm_train(xs, t, budget, 1e6, Rng(5))
    raw_acc = (predict_labels(elm_predict(raw, ts)) == test.labels).mean()

    stack, _ = stack_train(xs, (256, 256), (1e3, 1e7), Rng(5).split(0))
    enc_train, enc_test = stack_transform(stack, xs), stack_transform(stack, ts)
    enc, _ = elm_train(enc_train, t, budget, 1e6, Rng(5))
    enc_acc = (predict_labels(elm_predict(enc, enc_test)) == test.labels).mean()

    print(f"equal-budget elm[{budget}]: raw pixels {raw_acc:.4f}, encoded {enc_acc:.4f}")
    assert enc_acc >= raw_acc - 0.01  # encoding should match or improve raw pixels


def test_stream_decisions_prefer_the_true_class(shapes_benchmark):
    from elmkit.metrics import simulate_streams

    episodes = simulate_streams(
        shapes_benchmark["test_scores"],
        shapes_benchmark["test"].labels,
        t_c=0.82,
        window=120,
        episodes_per_class=10,
        rng=Rng(123),
    )
    correct = sum(1 for cls, d in episodes if d.decision == cls)
    assert correct / len(episodes) >= 0.95


def test_stack_metadata_records_reconstruction_quality(shapes_benchmark):
    model = shapes_benchmark["model"]
    first, second = model.stack
    assert first.mode == "compressed" and second.mode == "equal"
    # the equal-width layer recovers its rotation exactly on full-rank data
    assert second.reconstruction_error < 1e-6
    assert np.isfinite(first.reconstruction_error)


def test_real_low_res_handwritten_digits():
    """Sanity check on genuine handwriting: the bundled 8x8 digits corpus."""
    import pytest

    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    from elmkit.data import LabeledDataset, split_train_test
    from elmkit.pipeline import PipelineConfig, hml_predict, hml_train

    raw = sklearn_datasets.load_digits()
    ds = LabeledDataset(raw.data, raw.target, tuple(str(i) for i in range(10)))
    train, test = split_train_test(ds, 0.25, Rng(3))
    config = PipelineConfig((48, 48), (1e-1, 1e4, 1e8), head="sit2", head_size=60, seed=0)
    model = hml_train(train.x, train.labels, config)
    acc = (predict_labels(hml_predict(model, test.x)) == test.labels).mean()
    print(f"8x8 digits: train {model.metrics.train_accuracy:.4f}, test {acc:.4f}")
    assert acc >= 0.95
