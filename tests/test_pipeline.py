import json
import weakref

import numpy as np
import pytest

from elmkit import pipeline
from elmkit.elm import elm_predict, elm_train, predict_labels
from elmkit.numerics import Rng, ridge_solve
from elmkit.pipeline import (
    HEADS,
    FeatureScaler,
    HmlModel,
    PipelineConfig,
    hml_predict,
    hml_train,
    one_hot,
)


def blob_data(n_per_class=30, n_features=6, n_classes=3, seed=500):
    gen = Rng(seed).generator()
    centers = gen.uniform(0, 10, (n_classes, n_features))
    x = np.vstack([gen.normal(c, 0.6, (n_per_class, n_features)) for c in centers])
    labels = np.repeat(np.arange(n_classes), n_per_class)
    return x, labels


def test_config_validation():
    assert PipelineConfig((), (1.0,)).layer_sizes == ()  # a head on scaled raw features
    with pytest.raises(ValueError, match="ridge constants"):
        PipelineConfig((4,), (1.0,))
    with pytest.raises(ValueError, match="positive"):
        PipelineConfig((4,), (1.0, 0.0))
    for head in ("cnn", ["sit2"]):
        with pytest.raises(ValueError, match="unknown head"):
            PipelineConfig((4,), (1.0, 1.0), head=head)
    # a fuzzy head of one rule is refused before anything trains; an elm head of one node is not
    with pytest.raises(ValueError, match="^head_size must be >= 2 for the sit2 head, got 1$"):
        PipelineConfig.from_dict({"layer_sizes": [8], "Cs": [10, 1e4], "head": "sit2", "head_size": 1})
    assert PipelineConfig((8,), (10.0, 1e4), head="elm", head_size=1).head_size == 1


def test_config_integers_are_not_truncated():
    cfg = PipelineConfig((np.int64(8),), (1.0, 1.0), head_size=np.int32(5), seed=np.uint8(2))
    assert (cfg.layer_sizes, cfg.head_size, cfg.seed) == ((8,), 5, 2)
    assert all(type(v) is int for v in (*cfg.layer_sizes, cfg.head_size, cfg.seed))
    bad = {"layer_sizes": [2.7], "Cs": [1, 1], "head_size": 3.9, "seed": True}
    with pytest.raises(ValueError, match="must be an integer"):
        PipelineConfig.from_dict(bad)
    for key, value in (("layer_sizes", (True,)), ("layer_sizes", (4.0,)), ("head_size", 3.9),
                       ("head_size", False), ("seed", True), ("seed", np.float64(1.0))):
        kwargs = {"layer_sizes": (4,), "cs": (1.0, 1.0), key: value}
        with pytest.raises(ValueError, match="must be an integer"):
            PipelineConfig(**kwargs)


def test_config_round_trips_through_dict():
    cfg = PipelineConfig((8, 4), (0.1, 10.0, 1e6), head="elm", head_size=16, seed=3)
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    # a config without head, head_size and seed takes the dataclass defaults
    bare = PipelineConfig.from_dict({"layer_sizes": [8], "Cs": [0.1, 1e6]})
    assert bare == PipelineConfig((8,), (0.1, 1e6), head="sit2", head_size=40, seed=0)
    assert PipelineConfig.from_dict(bare.to_dict()) == bare


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        PipelineConfig.from_dict({"layer_sizes": [4], "Cs": [1, 1], "horse": 1})


def test_scaler_maps_train_to_unit_interval():
    x, _ = blob_data()
    s = FeatureScaler.fit(x)
    z = s.transform(x)
    assert z.min() == pytest.approx(0.0) and z.max() == pytest.approx(1.0)


def test_scaler_handles_constant_features():
    x = np.array([[1.0, 5.0], [2.0, 5.0]])
    z = FeatureScaler.fit(x).transform(x)
    np.testing.assert_array_equal(z[:, 1], [0.0, 0.0])


@pytest.mark.parametrize("head", ["sit2", "ridge", "elm"])
def test_each_head_learns_blobs(head):
    x, labels = blob_data()
    cfg = PipelineConfig((6,), (1e4, 1e4), head=head, head_size=12, seed=1)
    model = hml_train(x, labels, cfg)
    assert model.metrics.train_accuracy >= 0.95
    pred = predict_labels(hml_predict(model, x))
    assert (pred == labels).mean() >= 0.95


@pytest.mark.parametrize("head", ["sit2", "ridge", "elm"])
def test_train_accuracy_is_the_accuracy_of_predicting_the_training_rows(head):
    x, labels = blob_data(20)
    labels = np.roll(labels, 7)  # mislabel some rows so no head fits every one
    cfg = PipelineConfig((5, 4), (10.0, 10.0, 1e4), head=head, head_size=6, seed=2)
    model = hml_train(x, labels, cfg)
    predicted = float((predict_labels(hml_predict(model, x)) == labels).mean())
    assert 0.0 < predicted < 1.0
    assert model.metrics.train_accuracy == predicted


def test_ridge_head_on_equal_layer_matches_raw_ridge():
    # an equal-width layer is an orthogonal rotation, and the isotropic
    # penalty is rotation invariant, so accuracy matches plain ridge closely
    x, labels = blob_data(40)
    cfg = PipelineConfig((6,), (1e4, 1e4), head="ridge", seed=7)
    model = hml_train(x, labels, cfg)
    xs = model.scaler.transform(x)
    t = one_hot(labels, 3)
    w = ridge_solve(np.hstack([xs, np.ones((xs.shape[0], 1))]), t, 1e4)
    raw_acc = (predict_labels(np.hstack([xs, np.ones((xs.shape[0], 1))]) @ w) == labels).mean()
    assert abs(model.metrics.train_accuracy - raw_acc) <= 0.005


def test_same_config_same_metrics():
    x, labels = blob_data(20)
    cfg = PipelineConfig((5, 4), (10.0, 10.0, 1e4), head="sit2", head_size=6, seed=9)
    a = hml_train(x, labels, cfg)
    b = hml_train(x, labels, cfg)
    assert a.metrics.train_accuracy == b.metrics.train_accuracy
    np.testing.assert_array_equal(hml_predict(a, x), hml_predict(b, x))


def test_prediction_invariant_to_batch_splitting():
    x, labels = blob_data(15)
    cfg = PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=4)
    model = hml_train(x, labels, cfg)
    whole = hml_predict(model, x)
    parts = np.vstack([hml_predict(model, x[:7]), hml_predict(model, x[7:])])
    np.testing.assert_array_equal(whole, parts)


def test_predict_empty_batch():
    x, labels = blob_data(10)
    cfg = PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=4)
    model = hml_train(x, labels, cfg)
    assert hml_predict(model, np.zeros((0, x.shape[1]))).shape == (0, 3)


def test_predict_composition_matches_head_on_features():
    from elmkit.autoencoder import stack_transform

    x, labels = blob_data(10)
    cfg = PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=4)
    model = hml_train(x, labels, cfg)
    feats = stack_transform(model.stack, model.scaler.transform(x))
    np.testing.assert_array_equal(hml_predict(model, x), HEADS["ridge"].predict(model.head, feats))


@pytest.mark.parametrize("name", sorted(HEADS))
def test_each_head_fit_returns_its_predictions_on_the_training_rows(name):
    x, labels = blob_data(10)
    feats = FeatureScaler.fit(x).transform(x)
    head, scores = HEADS[name].fit(feats, one_hot(labels, 3), 4, 1e4, Rng(2))
    assert scores.tobytes() == HEADS[name].predict(head, feats).tobytes()


def test_stack_free_elm_is_the_hand_built_baseline():
    x, labels = blob_data(20)
    cfg = PipelineConfig((), (1e4,), head="elm", head_size=25, seed=3)
    model = hml_train(x, labels, cfg)
    scaler = FeatureScaler.fit(x)
    hand, _ = elm_train(scaler.transform(x), one_hot(labels, 3), 25, 1e4, Rng(3).split(1))
    assert model.stack == () and model.n_features == x.shape[1]
    for name in ("input_weights", "biases", "output_weights"):
        assert getattr(model.head, name).tobytes() == getattr(hand, name).tobytes()
    assert hml_predict(model, x).tobytes() == elm_predict(hand, scaler.transform(x)).tobytes()


def test_single_class_labels_rejected():
    x, _ = blob_data(10)
    with pytest.raises(ValueError, match="2 classes"):
        hml_train(x, np.zeros(x.shape[0]), PipelineConfig((4,), (10.0, 1e4)))


def test_one_hot_range_check():
    with pytest.raises(ValueError, match="out of range"):
        one_hot([0, 3], 3)


def test_config_accepts_infinite_ridge_constant():
    import math

    cfg = PipelineConfig((4,), (1e3, math.inf), head="ridge")
    assert math.isinf(cfg.cs[-1])
    assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
    # integers are numbers too; JSON's Infinity parses to the same float
    parsed = PipelineConfig.from_dict(json.loads('{"layer_sizes": [4], "Cs": [1000, Infinity], "head": "ridge"}'))
    assert parsed.cs == (1000.0, math.inf) and all(type(c) is float for c in parsed.cs)


def test_hml_train_frees_the_scaled_copy_before_the_head_fit(monkeypatch):
    x, labels = blob_data(10)
    scaled = []
    stack_train, ridge = pipeline.stack_train, HEADS["ridge"]

    def recording_stack_train(xs, *args):
        scaled.append(weakref.ref(xs))
        return stack_train(xs, *args)

    def fit(*args):
        assert len(scaled) == 1 and scaled[0]() is None, "the scaled input outlived the stack"
        return ridge.fit(*args)

    monkeypatch.setattr(pipeline, "stack_train", recording_stack_train)
    monkeypatch.setitem(pipeline.HEADS, "ridge", ridge._replace(fit=fit))
    model = hml_train(x, labels, PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=4))
    assert model.metrics.train_accuracy > 0.9
