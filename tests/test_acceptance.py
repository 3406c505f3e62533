"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
per criterion.  The handwriting-digits check needs the four IDX files on
disk (see README); it is skipped, with instructions, when they are absent.
"""

import gzip
import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import elmkit
from elmkit.cli import main as cli_main
from elmkit.cli import run_reducer_suite
from elmkit.data import load_idx, split_train_test
from elmkit.elm import predict_labels
from elmkit.metrics import active_classify, simulate_streams
from elmkit.numerics import Rng, orthonormal_random, ridge_solve
from elmkit.autoencoder import ae_train
from elmkit.pipeline import PipelineConfig, hml_predict, hml_train, one_hot
from elmkit.shapes import synth_shape_dataset
from elmkit import sit2
from elmkit.sit2 import _with_bias, sit2_predict, sit2_train
from elmkit.type_reduction import brute_force_cos, ekm_reduce, firing_batch, nt_defuzz, sc_reduce

from conftest import DIGITS_CONFIG, SHAPES_CONFIG

MNIST_FILES = (
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def rel(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_reducer_oracle_equivalence_and_nt_containment():
    report = run_reducer_suite(trials=1000, max_rules=12, seed=20240)
    ok_sc = report["max_rel_error_sc"] < 1e-9
    ok_ekm = report["max_rel_error_ekm"] < 1e-9
    ok_time = report["seconds"] < 10.0
    verdict(
        "reducer oracle equivalence",
        ok_sc and ok_ekm and ok_time,
        f"1000 instances, max rel err sc {report['max_rel_error_sc']:.2e} / "
        f"ekm {report['max_rel_error_ekm']:.2e}, {report['seconds']:.2f}s",
    )
    verdict("nt containment", report["nt_contained"], "y_l <= nt <= y_r on every instance")
    assert ok_sc and ok_ekm and ok_time
    assert report["nt_contained"]


def test_reducer_scale_invariance():
    gen = Rng(314).generator()
    interval_reducers = (sc_reduce, ekm_reduce, brute_force_cos)
    worst = 0.0
    for _ in range(200):
        m = int(gen.integers(2, 13))
        upper = gen.uniform(0.0, 1.0, m)
        upper[gen.integers(m)] = 1.0
        lower = upper * gen.uniform(0.0, 1.0, m)
        w = gen.uniform(-10.0, 10.0, m)
        base = [fn(lower[None], upper[None], w[None]) for fn in interval_reducers]
        base_nt = nt_defuzz(lower[None], upper[None], w[None])[0]
        for lam in (1e-6, 1.0, 1e6):
            scaled = (lower[None] * lam, upper[None] * lam, w[None])
            for fn, b in zip(interval_reducers, base):
                r = fn(*scaled)
                worst = max(worst, rel(r[0][0], b[0][0]), rel(r[1][0], b[1][0]))
            worst = max(worst, rel(nt_defuzz(*scaled)[0], base_nt))
    ok = worst <= 1e-12
    verdict("reducer scale invariance", ok, f"max rel change {worst:.2e} over {{1e-6,1,1e6}}")
    assert ok


def test_autoencoder_orthogonality_and_equal_mode_reconstruction():
    gen = Rng(2718).generator()
    worst_gap = 0.0
    worst_recon = 0.0
    for seed, (p, n_in, m) in enumerate(
        [(40, 12, 12), (60, 20, 8), (30, 10, 16), (25, 9, 9), (80, 32, 32)]
    ):
        x = gen.uniform(0.0, 1.0, (p, n_in))
        rng = Rng(seed)
        ae = ae_train(x, m, 1e6, rng)
        # the random projection is not stored; re-derive it from the same stream
        a = orthonormal_random(n_in, m, rng.split(0))
        gram = a.T @ a if m <= n_in else a @ a.T
        worst_gap = max(worst_gap, float(np.abs(gram - np.eye(min(m, n_in))).max()))
        if m == n_in:
            worst_recon = max(worst_recon, ae.reconstruction_error)
    ok = worst_gap < 1e-10 and worst_recon < 1e-6
    verdict(
        "autoencoder orthogonality",
        ok,
        f"max |a'a - I| {worst_gap:.2e}, equal-mode recon err {worst_recon:.2e}",
    )
    assert ok


def test_ridge_gradient_and_primal_dual_agreement():
    gen = Rng(997).generator()
    worst_grad = 0.0
    worst_agree = 0.0
    for i in range(100):
        rows = int(gen.integers(2, 24))
        cols = int(gen.integers(1, 24))
        c = float(10.0 ** gen.uniform(-2, 6))
        h = gen.standard_normal((rows, cols))
        t = gen.standard_normal((rows, 2))
        b = ridge_solve(h, t, c)
        g = 2.0 * h.T @ (h @ b - t) + (2.0 / c) * b
        worst_grad = max(worst_grad, np.abs(g).max() / (1.0 + np.linalg.norm(t)))
        if cols <= rows:  # dual computable too
            dual = h.T @ np.linalg.solve(h @ h.T + np.eye(rows) / c, t)
            denom = max(1.0, np.abs(b).max())
            worst_agree = max(worst_agree, np.abs(b - dual).max() / denom)
    ok = worst_grad < 1e-8 and worst_agree < 1e-8
    verdict(
        "ridge correctness",
        ok,
        f"max scaled gradient {worst_grad:.2e}, primal/dual gap {worst_agree:.2e}",
    )
    assert ok


def _find_mnist_dir():
    candidates = []
    env = os.environ.get("ELMKIT_MNIST_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    for cand in candidates:
        if all(
            os.path.exists(os.path.join(cand, f)) or os.path.exists(os.path.join(cand, f + ".gz"))
            for f in MNIST_FILES
        ):
            return cand
    return None


def _mnist_path(directory, name, tmp_path):
    raw = os.path.join(directory, name)
    if os.path.exists(raw):
        return raw
    out = tmp_path / name
    with gzip.open(raw + ".gz", "rb") as src, open(out, "wb") as dst:
        shutil.copyfileobj(src, dst)
    return str(out)


def test_handwritten_digits_desk_scale(tmp_path):
    directory = _find_mnist_dir()
    if directory is None:
        pytest.skip(
            "handwritten-digit IDX files not found; place the four standard "
            f"files {MNIST_FILES} (optionally gzipped) under data/mnist/ or "
            "point ELMKIT_MNIST_DIR at them"
        )
    train = load_idx(
        _mnist_path(directory, MNIST_FILES[0], tmp_path),
        _mnist_path(directory, MNIST_FILES[1], tmp_path),
    )
    test = load_idx(
        _mnist_path(directory, MNIST_FILES[2], tmp_path),
        _mnist_path(directory, MNIST_FILES[3], tmp_path),
    )
    assert train.x.shape == (60_000, 784)
    assert test.x.shape == (10_000, 784)
    x, labels = train.x[:10_000], train.labels[:10_000]
    tx, tl = test.x[:2_000], test.labels[:2_000]
    config = PipelineConfig((300, 300), (1e-1, 1e4, 1e8), head="sit2", head_size=60, seed=0)
    t0 = time.perf_counter()
    model = hml_train(x, labels, config)
    seconds = time.perf_counter() - t0
    acc = float((predict_labels(hml_predict(model, tx)) == tl).mean())
    ok = acc >= 0.93 and seconds < 300.0
    verdict(
        "handwritten digits desk scale",
        ok,
        f"test accuracy {acc:.4f} (>= 0.93), train {seconds:.0f}s (< 300s)",
    )
    assert ok


def test_shapes_end_to_end_and_baseline_ordering(shapes_benchmark):
    hml = shapes_benchmark["hml_test_accuracy"]
    elm = shapes_benchmark["elm_test_accuracy"]
    ok_hml = hml >= 0.95
    ok_order = elm <= hml and elm >= 0.85
    verdict("shapes end to end", ok_hml, f"hml test accuracy {hml:.4f} (>= 0.95)")
    verdict(
        "baseline ordering", ok_order, f"elm {elm:.4f} <= hml {hml:.4f} (matches benchmark ordering)"
    )
    assert ok_hml and ok_order


def test_active_classification_streams(shapes_benchmark):
    episodes = simulate_streams(
        shapes_benchmark["test_scores"],
        shapes_benchmark["test"].labels,
        t_c=0.82,
        window=120,
        episodes_per_class=25,
        rng=Rng(99),
    )
    decided = sum(1 for _, d in episodes if d.decision is not None)
    fraction = decided / len(episodes)
    ok_streams = fraction >= 0.95

    def frames(votes):
        return np.eye(4)[votes]

    d1 = active_classify(frames([2] * 120), 0.82, 120)
    d2 = active_classify(frames([1] * 100 + [0] * 20), 0.82, 120)
    d3 = active_classify(frames([1] * 90 + [0] * 30), 0.82, 120)
    ok_hand = (
        d1.decision == 2
        and d1.fractions[2] == 1.0
        and d2.decision == 1
        and abs(d2.fractions[1] - 0.8333) < 5e-5
        and d3.decision is None
        and d3.fractions[1] == 0.75
    )
    verdict(
        "active classification",
        ok_streams and ok_hand,
        f"{decided}/{len(episodes)} episodes decided within 120 frames; "
        "hand cases decide/decide/undecided",
    )
    assert ok_streams and ok_hand


def test_degenerate_fou_stage_equivalence(monkeypatch):
    monkeypatch.setattr(sit2, "WIDTH_RATIO", (1.0, 1.0))
    gen = Rng(808).generator()
    centers = gen.uniform(0, 1, (3, 5))
    x = np.vstack([gen.normal(c, 0.08, (50, 5)) for c in centers])
    labels = np.repeat(np.arange(3), 50)
    t = one_hot(labels, 3)
    refined, _ = sit2_train(x, t, 6, Rng(4), c=1e5)
    initial, _ = sit2_train(x, t, 6, Rng(4), c=1e5, refine=False)
    scale = np.abs(initial.consequents).max()
    gap = np.abs(refined.consequents - initial.consequents).max() / scale
    ok_stages = gap <= 1e-6

    scores = sit2_predict(refined, x)
    lower, upper = firing_batch(refined.rules, x)
    xb = _with_bias(x)
    worst = 0.0
    for i in range(3):
        w = xb @ refined.consequents[:, i].reshape(6, -1).T
        crisp = (upper * w).sum(axis=1) / upper.sum(axis=1)
        worst = max(worst, float(np.abs(scores[:, i] - crisp).max()))
    ok_pred = worst < 1e-9
    verdict(
        "degenerate-width stage equivalence",
        ok_stages and ok_pred,
        f"consequent gap {gap:.2e} (<= 1e-6), prediction vs crisp TSK {worst:.2e} (< 1e-9)",
    )
    assert ok_stages and ok_pred


def test_training_is_byte_deterministic(tmp_path):
    data_dir = tmp_path / "shapes"
    assert (
        cli_main(["synth", "--out", str(data_dir), "--n-per-class", "30",
                  "--noise", "0.2", "--seed", "12", "--samples", "0"])
        == 0
    )
    manifest = str(data_dir / "manifest.json")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "layer_sizes": [64], "Cs": [1e3, 1e6], "head": "sit2", "head_size": 8,
    }))
    out1, out2 = str(tmp_path / "m1.bin"), str(tmp_path / "m2.bin")
    assert cli_main(["train", "--config", str(cfg_path), "--data", manifest,
                     "--out", out1, "--seed", "3"]) == 0
    assert cli_main(["train", "--config", str(cfg_path), "--data", manifest,
                     "--out", out2, "--seed", "3"]) == 0
    same = open(out1, "rb").read() == open(out2, "rb").read()
    verdict("byte-deterministic training", same, "two seeded runs produced identical model files")
    assert same


# Train on saved rows and save what the thread-count tests compare; run
# in a fresh interpreter because OpenBLAS reads its thread count at load.
_TRAIN_AND_SAVE = """
import json, sys
import numpy as np
from elmkit.elm import predict_labels
from elmkit.pipeline import PipelineConfig, hml_predict, hml_train

data, config, out = sys.argv[1:]
d = np.load(data)
model = hml_train(d["x_train"], d["y_train"], PipelineConfig.from_dict(json.loads(config)))
layer = model.stack[-1]
np.savez(out, mode=layer.mode, beta=layer.beta, consequents=model.head.consequents,
         labels=predict_labels(hml_predict(model, d["x_test"])))
"""


def _train_under_one_and_two_blas_threads(tmp_path, x_train, y_train, x_test, config):
    """Both runs' saved arrays, the relative consequent drift, and whether the test labels agree."""
    data = tmp_path / "rows.npz"
    np.savez(data, x_train=x_train, y_train=y_train, x_test=x_test)
    src = os.path.dirname(os.path.dirname(elmkit.__file__))
    runs = []
    for threads in (1, 2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / f"threads{threads}.npz"
        subprocess.run(
            [sys.executable, "-c", _TRAIN_AND_SAVE, str(data),
             json.dumps(config.to_dict()), str(out)],
            env=env, check=True, timeout=600,
        )
        with np.load(out) as saved:
            runs.append(dict(saved))
    one, two = runs
    drift = np.abs(one["consequents"] - two["consequents"]).max() / np.abs(one["consequents"]).max()
    return one, two, drift, np.array_equal(one["labels"], two["labels"])


def test_training_does_not_depend_on_blas_threads(tmp_path):
    ds, _ = synth_shape_dataset(300, 0.25, Rng(42))
    train, test = split_train_test(ds, 0.3, Rng(43))
    one, two, drift, same_labels = _train_under_one_and_two_blas_threads(
        tmp_path, train.x, train.labels, test.x, SHAPES_CONFIG
    )
    assert str(one["mode"]) == "equal"
    same_beta = one["beta"].tobytes() == two["beta"].tobytes()
    ok = same_beta and drift < 1e-6 and same_labels
    verdict(
        "BLAS thread-count invariance",
        ok,
        f"1 vs 2 OpenBLAS threads: equal-layer beta bitwise equal {same_beta}, "
        f"consequent drift {drift:.1e} (< 1e-6 relative), identical labels {same_labels}",
    )
    assert ok


def test_digits_training_does_not_depend_on_blas_threads(tmp_path):
    # the proxy rows of the digits-proxy benchmark workload, loaded by path
    spec = importlib.util.spec_from_file_location(
        "perfbench_digits_proxy", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digits_proxy.py"
    )
    digits_proxy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digits_proxy)
    x, labels = digits_proxy.make_rows(4000, (7, 0))
    one, two, drift, same_labels = _train_under_one_and_two_blas_threads(
        tmp_path, x[:3000], labels[:3000], x[3000:], DIGITS_CONFIG
    )
    assert str(one["mode"]) == "equal"
    # the equal layer's weights follow a BLAS-computed rotation, so they are reported, not pinned bitwise
    beta_diff = np.abs(one["beta"] - two["beta"]).max()
    ok = drift < 1e-6 and same_labels
    verdict(
        "BLAS thread-count invariance, digits config",
        ok,
        f"1 vs 2 OpenBLAS threads: equal-layer beta max difference {beta_diff:.1e}, "
        f"consequent drift {drift:.1e} (< 1e-6 relative), identical labels {same_labels}",
    )
    assert ok
