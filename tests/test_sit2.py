import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from elmkit.elm import predict_labels
from elmkit import pipeline, sit2
from elmkit.numerics import Rng, _solve_spd
from elmkit.pipeline import PipelineConfig, hml_train
from elmkit.sit2 import (
    Sit2Model,
    _input_gram,
    _product_ridge,
    _with_bias,
    sit2_predict,
    sit2_train,
)
from elmkit.type_reduction import It2RuleBase, ekm_reduce, firing_batch


def two_blobs(n_per_class=40, seed=60):
    gen = Rng(seed).generator()
    a = gen.normal([0.2, 0.2], 0.08, (n_per_class, 2))
    b = gen.normal([0.8, 0.8], 0.08, (n_per_class, 2))
    x = np.vstack([a, b])
    labels = np.repeat([0, 1], n_per_class)
    t = np.eye(2)[labels]
    return x, t, labels


def test_separable_blobs_high_training_accuracy():
    x, t, labels = two_blobs()
    model, _ = sit2_train(x, t, n_rules=2, rng=Rng(1), c=1e6)
    pred = predict_labels(sit2_predict(model, x))
    assert (pred == labels).mean() >= 0.99


def test_rejects_single_column_targets():
    x, _, _ = two_blobs()
    with pytest.raises(ValueError, match="2 classes"):
        sit2_train(x, np.ones((x.shape[0], 1)), 2, Rng(0))


def test_rejects_too_few_rules():
    x, t, _ = two_blobs()
    with pytest.raises(ValueError, match="n_rules"):
        sit2_train(x, t, 1, Rng(0))


@pytest.mark.parametrize("n_rules", [3.0, 2.5, True])
def test_rejects_a_rule_count_that_is_not_an_integer(n_rules):
    x, t, _ = two_blobs()
    with pytest.raises(ValueError, match="n_rules must be an integer"):
        sit2_train(x, t, n_rules, Rng(0))


@pytest.mark.parametrize("c", [0.0, -1.0, float("nan")])
@pytest.mark.parametrize("n_per_class, n_rules", [(40, 2), (10, 8)])
def test_rejects_a_ridge_constant_that_is_not_positive_on_both_routes(n_per_class, n_rules, c):
    # 80 rows against 2 x 3 columns take the tall route through ridge_solve,
    # 20 rows against 8 x 3 the dual one straight to the shared solver
    x, t, _ = two_blobs(n_per_class)
    with pytest.raises(ValueError, match="c must be positive"):
        sit2_train(x, t, n_rules, Rng(0), c=c)


def test_collapsed_width_interval_skips_nothing_but_changes_nothing(monkeypatch):
    # sigma_lower == sigma_upper: the refinement pass rebuilds the very same
    # hidden rows, so refined consequents match the initial ones
    monkeypatch.setattr(sit2, "WIDTH_RATIO", (1.0, 1.0))
    x, t, _ = two_blobs()
    refined, _ = sit2_train(x, t, 3, Rng(5), c=1e4)
    initial, _ = sit2_train(x, t, 3, Rng(5), c=1e4, refine=False)
    denom = np.abs(initial.consequents).max()
    assert np.abs(refined.consequents - initial.consequents).max() <= 1e-6 * denom


def test_collapsed_width_prediction_is_type1_weighted_mean(monkeypatch):
    monkeypatch.setattr(sit2, "WIDTH_RATIO", (1.0, 1.0))
    x, t, _ = two_blobs()
    model, _ = sit2_train(x, t, 3, Rng(5), c=1e4)
    scores = sit2_predict(model, x)
    lower, upper = firing_batch(model.rules, x)
    np.testing.assert_array_equal(lower, upper)
    xb = _with_bias(x)
    for i in range(2):
        w = xb @ model.consequents[:, i].reshape(model.n_rules, -1).T
        ref = (upper * w).sum(axis=1) / upper.sum(axis=1)
        assert np.abs(scores[:, i] - ref).max() < 1e-9


def test_single_rule_model_predicts_its_consequent():
    rules = It2RuleBase(np.array([[0.5, 0.5]]), [0.4], [0.8])
    q = np.array([[1.0, -2.0], [0.5, 0.0], [0.0, 3.0]])  # (n+1) x outputs
    model = Sit2Model(rules, q)
    x = np.array([[0.2, 0.6], [0.9, 0.1]])
    scores = sit2_predict(model, x)
    expected = _with_bias(x) @ q
    np.testing.assert_allclose(scores, expected, rtol=1e-12)


@pytest.mark.parametrize("q", [np.zeros((4, 2)), np.zeros((2, 2)), np.zeros(3), np.zeros((3, 2, 1))])
def test_consequents_that_do_not_chain_with_the_rules_are_refused(q):
    # one rule on two inputs takes (2 + 1) x n_outputs consequents
    rules = It2RuleBase(np.array([[0.5, 0.5]]), [0.4], [0.8])
    with pytest.raises(ValueError, match=r"do not chain with 1 rules on 2 inputs"):
        Sit2Model(rules, q)


def test_ekm_and_sc_predictions_agree():
    x, t, _ = two_blobs(30)
    model, _ = sit2_train(x, t, 5, Rng(9), c=1e5)
    test_x = Rng(10).generator().uniform(0, 1, (25, 2))
    a = sit2_predict(model, test_x, reducer="sc")
    b = sit2_predict(model, test_x, reducer="ekm")
    assert np.abs(a - b).max() < 1e-9


def test_ekm_predictions_are_ekm_reduce_midpoints_bitwise():
    x, t, _ = two_blobs(30)
    model, _ = sit2_train(x, t, 5, Rng(9), c=1e5)
    test_x = Rng(10).generator().uniform(0, 1, (25, 2))
    scores = sit2_predict(model, test_x, reducer="ekm")
    lower, upper = firing_batch(model.rules, test_x)
    n_outputs = model.consequents.shape[1]
    w = _with_bias(test_x) @ model.consequents.reshape(model.n_rules, -1, n_outputs).transpose(2, 1, 0)
    for p in range(test_x.shape[0]):
        for i in range(n_outputs):
            y_l, y_r, _, _ = ekm_reduce(lower[p : p + 1], upper[p : p + 1], w[i, p : p + 1])
            assert scores[p, i].tobytes() == (0.5 * (y_l[0] + y_r[0])).tobytes(), (p, i)


def test_unknown_reducer_rejected():
    x, t, _ = two_blobs(10)
    model, _ = sit2_train(x, t, 2, Rng(0))
    with pytest.raises(ValueError, match="reducer"):
        sit2_predict(model, x, reducer="km")


def test_determinism():
    x, t, _ = two_blobs(20)
    a, _ = sit2_train(x, t, 4, Rng(33), c=1e5)
    b, _ = sit2_train(x, t, 4, Rng(33), c=1e5)
    assert a.consequents.tobytes() == b.consequents.tobytes()
    assert a.rules.centers.tobytes() == b.rules.centers.tobytes()


def test_predict_feature_mismatch():
    x, t, _ = two_blobs(10)
    model, _ = sit2_train(x, t, 2, Rng(0))
    with pytest.raises(ValueError, match="feature mismatch"):
        sit2_predict(model, np.zeros((3, 5)))


def test_predict_empty_batch():
    x, t, _ = two_blobs(10)
    model, _ = sit2_train(x, t, 2, Rng(0))
    assert sit2_predict(model, np.zeros((0, 2))).shape == (0, 2)


def test_product_ridge_structured_matches_explicit():
    from elmkit.numerics import ridge_solve

    for p, m_rules, k, outs in [
        (12, 6, 5, 3),  # m = 30 > p forces the dual route
        (12, 6, 5, 1),  # one output column, as each refinement solve passes
        (15, 9, 4, 2),  # more rules than outputs and inputs: pins the fold's (k, rules, outs) transpose
    ]:
        gen = Rng(71).generator()
        phi = gen.uniform(0.1, 1.0, (p, m_rules))
        xb = gen.uniform(-1.0, 1.0, (p, k))
        t = gen.uniform(-1.0, 1.0, (p, outs))
        h = (phi[:, :, None] * xb[:, None, :]).reshape(p, m_rules * k)
        expected = ridge_solve(h, t, 50.0)
        got = _product_ridge(phi, xb, t, 50.0, _input_gram(xb))
        np.testing.assert_allclose(got, expected, rtol=1e-8, atol=1e-10)


def test_product_ridge_tall_is_ridge_solve_on_explicit_rows_bitwise():
    from elmkit.numerics import ridge_solve

    gen = Rng(72).generator()
    p, m_rules, k, outs = 40, 3, 4, 2  # m = 12 <= p takes the primal route
    phi = gen.uniform(0.1, 1.0, (p, m_rules))
    xb = gen.uniform(-1.0, 1.0, (p, k))
    t = gen.uniform(-1.0, 1.0, (p, outs))
    h = (phi[:, :, None] * xb[:, None, :]).reshape(p, m_rules * k)
    for targets in (t, t[:, :1]):  # the initial pass and one refinement column
        got = _product_ridge(phi, xb, targets, 50.0, None)
        expected = ridge_solve(h, targets, 50.0)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_refinement_does_not_hurt_separable_fit():
    x, t, labels = two_blobs(50, seed=61)
    refined, _ = sit2_train(x, t, 4, Rng(2), c=1e6)
    initial, _ = sit2_train(x, t, 4, Rng(2), c=1e6, refine=False)
    acc_ref = (predict_labels(sit2_predict(refined, x)) == labels).mean()
    acc_init = (predict_labels(sit2_predict(initial, x)) == labels).mean()
    assert acc_ref >= acc_init - 0.02


def reference_product_ridge(phi, xb, t, c):
    """The dual path through full p x p Grams: (phi phi') * (xb xb') factored
    by the copy-free solve, then folded back for every rule."""
    p, m_rules = phi.shape
    k = xb.shape[1]
    gram = phi @ phi.T
    gram *= xb @ xb.T
    alpha = _solve_spd(lambda g: np.copyto(g, gram), t, c)
    folded = xb.T @ (phi[:, :, None] * alpha[:, None, :]).reshape(p, -1)
    return folded.reshape(k, m_rules, -1).transpose(1, 0, 2).reshape(m_rules * k, -1)


@pytest.mark.parametrize("p", [1, 255, 257, 529])
def test_dual_solves_share_one_buffer_and_match_the_full_gram_path(p, monkeypatch):
    gen = Rng(74 + p).generator()
    m_rules, n_inputs = 20, 29  # m = 600 > p: the dual route
    xb = _with_bias(gen.uniform(0.0, 1.0, (p, n_inputs)))
    t = np.eye(3)[gen.integers(0, 3, p)]
    kxx = xb @ xb.T
    block = np.arange(p) // sit2._TILE_ROWS
    below_blocks = np.nonzero(block[:, None] > block[None, :])
    buf = _input_gram(xb)
    np.testing.assert_allclose(buf[below_blocks], kxx[below_blocks], rtol=1e-14)
    k_stored = buf[below_blocks]

    built = []

    def recording_solve(build, rhs, c, out=None):
        def record(g):
            build(g)
            built.append(np.triu(g))

        return _solve_spd(record, rhs, c, out)

    monkeypatch.setattr(sit2, "_solve_spd", recording_solve)
    # the initial pass and one refinement solve, as sit2_train runs them on one buffer
    for targets in (t, t[:, :1]):
        phi = gen.uniform(0.1, 1.0, (p, m_rules))
        got = _product_ridge(phi, xb, targets, 1e4, buf)
        np.testing.assert_allclose(built.pop(), np.triu((phi @ phi.T) * kxx), rtol=1e-14)
        assert buf[below_blocks].tobytes() == k_stored.tobytes()
        np.testing.assert_allclose(got, reference_product_ridge(phi, xb, targets, 1e4), rtol=1e-9)


def test_sit2_train_dual_path_holds_one_gram_buffer():
    # the dual Gram and the input Gram it is built from share one p x p
    # buffer; the bounds leave room for xb, the firing arrays and the SC
    # reducer's working set, not for a second p x p array
    p, n_inputs, n_rules = 1200, 120, 10  # m = 10 * 121 > p: the dual route
    for n_classes, bound in ((2, 1.22), (10, 1.227)):
        gen = Rng(73).generator()
        x = gen.uniform(0.0, 1.0, (p, n_inputs))
        t = np.eye(n_classes)[gen.integers(0, n_classes, p)]
        tracemalloc.start()
        try:
            sit2_train(x, t, n_rules, Rng(1), c=1e4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * p * p, n_classes


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("n_per_class,n_rules", [(40, 3), (10, 8)])  # 9 <= 80: primal; 24 > 20: dual
def test_sit2_train_scores_are_its_predictions(n_per_class, n_rules, refine):
    x, t, _ = two_blobs(n_per_class)
    model, scores = sit2_train(x, t, n_rules, Rng(3), c=1e4, refine=refine)
    predicted = sit2_predict(model, x)
    assert scores.shape == predicted.shape and scores.tobytes() == predicted.tobytes()


def test_benchmark_tracer_binds_sit2_train_by_name(monkeypatch):
    # perfbench/spans.py binds each sit2_train call's arguments by name,
    # defaults applied, and passes them to head_counts; it sees a reducer
    # only where sit2 looks the reducer up at call time, and a head call only
    # where pipeline.HEADS looks the head's function up at call time
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up there
    spec.loader.exec_module(spans)
    x, t, labels = two_blobs()
    tracer = spans.Tracer()
    with tracer.recording(0):
        model = hml_train(x, labels, PipelineConfig((), (1e4,), head="sit2", head_size=3))
        feats = model.scaler.transform(x)
        sit2.sit2_predict(model.head, feats, reducer="sc")
        sit2.sit2_predict(model.head, feats, reducer="ekm")
        pipeline.hml_predict(model, x)
    # 3 rules on 2 inputs plus bias: a primal Gram of order 9, one initial and two class solves
    expected = dict(zip(spans.HEAD_COUNTS, (9, 3, 3 * 9**3 / 3.0, 8 * 9**2)))
    assert tracer.heads == [(0, expected)]
    # every SC sweep is seen: two refinements and two score columns in training, two
    # score columns in the "sc" predict and in hml_predict, none in the "ekm" one;
    # one firing per call
    names = [span.name for span in tracer.spans]
    assert names.count("type_reduction.sc_reduce_batch") == 8
    assert names.count("type_reduction.firing_batch") == 4
    # hml_predict scores through a sit2_predict span of its own
    predicts = [span for span in tracer.spans if span.name == "sit2.sit2_predict"]
    assert len(predicts) == 3
    assert tracer.spans[predicts[-1].parent].name == "pipeline.hml_predict"
