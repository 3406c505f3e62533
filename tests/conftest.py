import numpy as np
import pytest

from elmkit.data import split_train_test
from elmkit.elm import elm_predict, elm_train, predict_labels
from elmkit.numerics import Rng
from elmkit.pipeline import FeatureScaler, PipelineConfig, hml_predict, hml_train, one_hot
from elmkit.shapes import synth_shape_dataset

SHAPES_CONFIG = PipelineConfig((256, 256), (1e3, 1e7, 1e8), head="sit2", head_size=40, seed=1)
# the digits config, as the digits-proxy benchmark workload trains it
DIGITS_CONFIG = PipelineConfig((300, 300), (1e-1, 1e4, 1e8), head="sit2", head_size=60, seed=1)


@pytest.fixture(scope="session")
def shapes_benchmark():
    """Full 4 x 1200 synthetic-shape benchmark: dataset, models, and scores.

    Built once per session; the end-to-end, ordering, and stream-decision
    acceptance checks all read from it.
    """
    ds, _ = synth_shape_dataset(1200, 0.25, Rng(42))
    train, test = split_train_test(ds, 0.3, Rng(7))
    model = hml_train(train.x, train.labels, SHAPES_CONFIG)
    test_scores = hml_predict(model, test.x)
    hml_acc = float((predict_labels(test_scores) == test.labels).mean())

    scaler = FeatureScaler.fit(train.x)
    baseline, _ = elm_train(
        scaler.transform(train.x), one_hot(train.labels, ds.n_classes), 1600, 1e6, Rng(2)
    )
    elm_acc = float(
        (predict_labels(elm_predict(baseline, scaler.transform(test.x))) == test.labels).mean()
    )
    return {
        "dataset": ds,
        "train": train,
        "test": test,
        "model": model,
        "test_scores": np.asarray(test_scores),
        "hml_test_accuracy": hml_acc,
        "elm_test_accuracy": elm_acc,
    }
