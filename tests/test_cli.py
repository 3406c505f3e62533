import json
import struct

import numpy as np
import pytest

from elmkit import cli
from elmkit.cli import build_parser, main
from elmkit.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, save_idx
from elmkit.imaging import write_ppm
from elmkit.numerics import Rng
from elmkit.shapes import HUE_BAND

TRAIN_SCHEMA_KEYS = {
    "command", "version", "config", "data", "model_path", "n_samples",
    "n_features", "n_classes", "phase_seconds", "train_accuracy",
}
EVAL_SCHEMA_KEYS = {
    "command", "version", "model", "data", "n_samples", "overall_accuracy",
    "per_class_accuracy", "inference_seconds_per_frame", "confusion_csv", "active",
}
BENCH_ROW_KEYS = {"model", "structure", "train_accuracy", "test_accuracy", "train_seconds"}


@pytest.fixture
def blob_manifest(tmp_path):
    """Small IDX dataset of 3 blob classes on a 6x6 grid."""
    gen = Rng(321).generator()
    n, side = 60, 6
    labels = np.repeat(np.arange(3), n // 3)
    rows = []
    for lbl in labels:
        img = np.zeros((side, side))
        img[lbl : lbl + 3, lbl : lbl + 3] = 1.0
        rows.append(np.clip(img.ravel() + gen.normal(0, 0.08, side * side), 0, 1))
    save_idx(np.array(rows), labels, tmp_path / "x.idx", tmp_path / "y.idx", side, side)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "type": "idx", "images": "x.idx", "labels": "y.idx",
        "class_names": ["a", "b", "c"],
    }))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "layer_sizes": [12], "Cs": [1e3, 1e6], "head": "sit2", "head_size": 4,
    }))
    return tmp_path, str(manifest), str(config)


def test_train_writes_model_and_report(blob_manifest):
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    rc = main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"])
    assert rc == 0
    report = json.loads((tmp / "model.bin.train.json").read_text())
    assert set(report) == TRAIN_SCHEMA_KEYS
    assert (tmp / "model.bin").exists()
    assert report["train_accuracy"] >= 0.9


def test_train_missing_manifest(blob_manifest, capsys):
    tmp, _, config = blob_manifest
    rc = main(["train", "--config", config, "--data", str(tmp / "nope.json"),
               "--out", str(tmp / "m.bin")])
    assert rc == 2
    assert "manifest not found" in capsys.readouterr().err


def test_train_refuses_an_output_in_a_missing_directory_before_training(blob_manifest, capsys, monkeypatch):
    tmp, manifest, config = blob_manifest
    monkeypatch.setattr(cli, "hml_train", lambda *a, **k: pytest.fail("trained before refusing the output"))
    out = str(tmp / "missing" / "m.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out]) == 2
    assert out in capsys.readouterr().err


def test_train_refuses_a_sit2_head_of_one_rule_before_training(blob_manifest, capsys, monkeypatch):
    tmp, manifest, _ = blob_manifest
    monkeypatch.setattr(cli, "hml_train", lambda *a, **k: pytest.fail("trained before refusing the config"))
    cfg = tmp / "one-rule.json"
    cfg.write_text(json.dumps({"layer_sizes": [8], "Cs": [10, 1e4], "head": "sit2", "head_size": 1}))
    out = tmp / "m.bin"
    assert main(["train", "--config", str(cfg), "--data", manifest, "--out", str(out)]) == 2
    assert "head_size must be >= 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "name, header, wants",
    [
        ("x.idx", struct.pack(">iiii", IDX_IMAGE_MAGIC, *[2**31 - 1] * 3), (2**31 - 1) ** 3),
        ("x.idx", struct.pack(">iiii", IDX_IMAGE_MAGIC, 1000, 100000, 100000), 10**13),
        ("y.idx", struct.pack(">ii", IDX_LABEL_MAGIC, 2**31 - 1), 2**31 - 1),
        ("y.idx", struct.pack(">ii", IDX_LABEL_MAGIC, -1), -1),
    ],
    ids=["images-2**31-1-cubed", "images-10**13", "labels-2**31-1", "labels-minus-1"],
)
def test_an_idx_header_larger_than_its_file_is_a_usage_error(blob_manifest, capsys, name, header, wants):
    tmp, manifest, config = blob_manifest
    (tmp / name).write_bytes(header + bytes(36))
    assert main(["train", "--config", config, "--data", manifest, "--out", str(tmp / "m.bin")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp / name}: expected {wants} bytes" in err and "but 36 are left" in err, err


def test_train_same_seed_same_accuracy_and_model_bytes(blob_manifest):
    tmp, manifest, config = blob_manifest
    out1, out2 = str(tmp / "m1.bin"), str(tmp / "m2.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out1, "--seed", "9"]) == 0
    assert main(["train", "--config", config, "--data", manifest, "--out", out2, "--seed", "9"]) == 0
    r1 = json.loads((tmp / "m1.bin.train.json").read_text())
    r2 = json.loads((tmp / "m2.bin.train.json").read_text())
    assert r1["train_accuracy"] == r2["train_accuracy"]
    assert (tmp / "m1.bin").read_bytes() == (tmp / "m2.bin").read_bytes()


def test_eval_matches_train_accuracy(blob_manifest):
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"]) == 0
    rc = main(["eval", "--model", out, "--data", manifest, "--out", str(tmp / "eval")])
    assert rc == 0
    metrics = json.loads((tmp / "eval" / "metrics.json").read_text())
    report = json.loads((tmp / "model.bin.train.json").read_text())
    assert set(metrics) == EVAL_SCHEMA_KEYS
    assert metrics["overall_accuracy"] == pytest.approx(report["train_accuracy"])
    csv_lines = (tmp / "eval" / "confusion.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "a,b,c"
    total = sum(int(v) for line in csv_lines[1:] for v in line.split(","))
    assert total == metrics["n_samples"]


def test_eval_active_section(blob_manifest):
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"]) == 0
    rc = main(["eval", "--model", out, "--data", manifest, "--out", str(tmp / "eval"),
               "--threshold", "0.82", "--window", "40", "--episodes", "5", "--seed", "3"])
    assert rc == 0
    active = json.loads((tmp / "eval" / "metrics.json").read_text())["active"]
    assert active["episodes"] == 15
    assert active["decided"] >= 14


def test_eval_feature_mismatch(blob_manifest, tmp_path, capsys):
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"]) == 0
    gen = Rng(0).generator()
    save_idx(gen.uniform(0, 1, (6, 16)), [0, 1, 2, 0, 1, 2],
             tmp / "w.idx", tmp / "wy.idx", 4, 4)
    bad = tmp / "bad_manifest.json"
    bad.write_text(json.dumps({"type": "idx", "images": "w.idx", "labels": "wy.idx"}))
    rc = main(["eval", "--model", out, "--data", str(bad), "--out", str(tmp / "e2")])
    assert rc == 2
    assert "feature mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["idx", "csv"])
def test_eval_with_fewer_data_classes_than_model_is_usage_error(blob_manifest, kind, capsys):
    # an IDX manifest without class_names counts classes up to its largest
    # label, and a CSV one indexes its sorted label names, so test rows
    # lacking the last class would otherwise be scored against shifted labels
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"]) == 0
    gen = Rng(1).generator()
    x, labels = gen.uniform(0, 1, (6, 36)), [0, 1, 0, 1, 0, 1]
    few = tmp / "few_manifest.json"
    if kind == "idx":
        save_idx(x, labels, tmp / "f.idx", tmp / "fy.idx", 6, 6)
        few.write_text(json.dumps({"type": "idx", "images": "f.idx", "labels": "fy.idx"}))
    else:
        lines = [",".join([*(f"p{i}" for i in range(36)), "label"])]
        lines += [",".join([*map(str, row), "bc"[lbl]]) for row, lbl in zip(x, labels)]
        (tmp / "few.csv").write_text("\n".join(lines) + "\n")
        few.write_text(json.dumps({"type": "csv", "path": "few.csv"}))
    rc = main(["eval", "--model", out, "--data", str(few), "--out", str(tmp / "e3")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(few) in err and "2 classes, fewer than the 3" in err, err
    assert not (tmp / "e3").exists()


def test_bench_table_schema(blob_manifest):
    tmp, manifest, _ = blob_manifest
    cfg = tmp / "bench_cfg.json"
    cfg.write_text(json.dumps({"layer_sizes": [10], "Cs": [1e3, 1e6],
                               "head_size": 4, "elm_hidden": 30}))
    rc = main(["bench", "--data", manifest, "--out", str(tmp / "bench"),
               "--config", str(cfg), "--seed", "2", "--test-fraction", "0.3"])
    assert rc == 0
    report = json.loads((tmp / "bench" / "bench.json").read_text())
    assert [row["model"] for row in report["rows"]] == ["elm", "ml-elm", "hml-elm"]
    # elm is the stack-free pipeline: 36 raw features, 30 hidden nodes, 3 classes;
    # ml-elm's ridge readout maps the stack straight to the classes
    assert [row["structure"] for row in report["rows"]] == [[36, 30, 3], [36, 10, 3], [36, 10, 4, 3]]
    for row in report["rows"]:
        assert set(row) == BENCH_ROW_KEYS
        assert 0.0 <= row["test_accuracy"] <= 1.0


def test_bench_takes_its_seed_from_the_config_unless_given_one(tmp_path):
    # overlapping classes, so a row's accuracies depend on the seed's split and weights
    gen = Rng(44).generator()
    lines = ["a,b,c,label"] + [",".join(f"{v:.6f}" for v in gen.normal(k % 3, 1.5, 3)) + f",c{k % 3}" for k in range(90)]
    (tmp_path / "rows.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"type": "csv", "path": "rows.csv"}))
    reports = {}
    for name, config_seed, seed_args in [("config", {"seed": 5}, []), ("option", {}, ["--seed", "5"]),
                                         ("option-over-config", {"seed": 3}, ["--seed", "5"]), ("default", {}, [])]:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"layer_sizes": [6], "Cs": [1e3, 1e6], "head_size": 4, "elm_hidden": 30, **config_seed}))
        out = tmp_path / name
        assert main(["bench", "--data", str(tmp_path / "manifest.json"), "--out", str(out), "--config", str(cfg),
                     *seed_args]) == 0
        report = json.loads((out / "bench.json").read_text())
        # train_seconds is wall time; every other field of a row is a function of the seed
        reports[name] = report["seed"], [{k: v for k, v in row.items() if k != "train_seconds"} for row in report["rows"]]
    assert reports["config"] == reports["option"] == reports["option-over-config"]
    assert reports["config"][0] == 5 and reports["default"][0] == 0
    assert reports["config"][1] != reports["default"][1]


def test_bench_schema_validates(blob_manifest):
    jsonschema = pytest.importorskip("jsonschema")
    tmp, manifest, _ = blob_manifest
    cfg = tmp / "bench_cfg.json"
    cfg.write_text(json.dumps({"layer_sizes": [10], "Cs": [1e3, 1e6],
                               "head_size": 4, "elm_hidden": 30}))
    assert main(["bench", "--data", manifest, "--out", str(tmp / "bench"),
                 "--config", str(cfg), "--seed", "2"]) == 0
    schema = {
        "type": "object",
        "required": ["command", "version", "data", "seed", "test_fraction", "rows"],
        "properties": {
            "rows": {
                "type": "array",
                "minItems": 3,
                "items": {
                    "type": "object",
                    "required": sorted(BENCH_ROW_KEYS),
                    "properties": {
                        "model": {"type": "string"},
                        "structure": {"type": "array", "items": {"type": "integer"}},
                        "train_accuracy": {"type": "number"},
                        "test_accuracy": {"type": "number"},
                        "train_seconds": {"type": "number"},
                    },
                    "additionalProperties": False,
                },
            }
        },
    }
    jsonschema.validate(json.loads((tmp / "bench" / "bench.json").read_text()), schema)


def test_oracle_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    rc = main(["oracle", "--trials", "1000", "--max-rules", "12", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["max_rel_error_sc"] < 1e-9
    assert report["max_rel_error_ekm"] < 1e-9
    assert report["nt_contained"] is True
    assert report["seconds"] < 10.0
    assert "max rel error" in capsys.readouterr().out


def test_oracle_guard_rejects_large_rule_count(capsys):
    assert main(["oracle", "--trials", "10", "--max-rules", "25"]) == 2
    assert "oracle guard" in capsys.readouterr().err


def test_oracle_rejects_zero_trials(capsys):
    assert main(["oracle", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, named",
    [
        (["--threshold", "1.5"], "threshold must be in (0, 1]"),
        (["--threshold", "nan"], "threshold must be in (0, 1]"),
        (["--threshold", "0.8", "--window", "0"], "window must be >= 1"),
        (["--threshold", "0.8", "--window", "-3"], "window must be >= 1"),
        (["--threshold", "0.8", "--episodes", "0"], "episodes must be >= 1"),
        (["--threshold", "0.8", "--episodes", "-1"], "episodes must be >= 1"),
    ],
    ids=["threshold-1.5", "threshold-nan", "window-0", "window-minus-3", "episodes-0", "episodes-minus-1"],
)
def test_malformed_eval_stream_options_are_usage_errors(blob_manifest, option, named, capsys):
    tmp, manifest, config = blob_manifest
    out = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", manifest, "--out", out, "--seed", "5"]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", out, "--data", manifest, "--out", str(tmp / "eval"), *option])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not (tmp / "eval").exists()


def test_synth_then_train_then_eval(tmp_path):
    data_dir = tmp_path / "shapes"
    rc = main(["synth", "--out", str(data_dir), "--n-per-class", "12",
               "--noise", "0.1", "--seed", "4", "--samples", "1"])
    assert rc == 0
    manifest = data_dir / "manifest.json"
    assert manifest.exists()
    assert (data_dir / "sample_000.ppm").exists()
    loaded = json.loads(manifest.read_text())
    assert loaded["class_names"] == ["box", "circle", "triangle", "irregular"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"layer_sizes": [64], "Cs": [1e3, 1e6],
                               "head": "ridge", "head_size": 1}))
    out = str(tmp_path / "m.bin")
    assert main(["train", "--config", cfg.as_posix(), "--data", str(manifest),
                 "--out", out, "--seed", "1"]) == 0
    assert main(["eval", "--model", out, "--data", str(manifest),
                 "--out", str(tmp_path / "ev")]) == 0
    assert sorted(p.name for p in (tmp_path / "ev").iterdir()) == ["confusion.csv", "metrics.json"]
    assert not list(tmp_path.rglob("*.tmp"))


def test_segment_cli(tmp_path, capsys):
    px = np.zeros((60, 60, 3), dtype=np.uint8)
    px[20:35, 25:40] = (230, 20, 15)
    write_ppm(px, tmp_path / "in.ppm")
    rc = main(["segment", "--image", str(tmp_path / "in.ppm"),
               "--out", str(tmp_path / "mask.ppm")])
    assert rc == 0
    centroid = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(centroid["centroid_row"] - 27) <= 1
    assert abs(centroid["centroid_col"] - 32) <= 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ppm", "mask.ppm"]


def test_segment_cli_refuses_a_frame_of_in_band_noise_alone(tmp_path, capsys):
    # the red sample's green-hued noise pixels fill no 3 x 3 window
    assert main(["synth", "--out", str(tmp_path / "test"), "--n-per-class", "10", "--seed", "2", "--samples", "1"]) == 0
    image, out = tmp_path / "test" / "sample_000.ppm", tmp_path / "mask.ppm"
    assert main(["segment", "--image", str(image), "--hue-lo", "90", "--hue-hi", "150", "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == "error: no object in hue band"
    assert not out.exists()
    assert main(["segment", "--image", str(image), "--out", str(out)]) == 0


def test_segment_cli_defaults_to_the_shapes_hue_band():
    args = build_parser().parse_args(["segment", "--image", "in.ppm"])
    assert (args.hue_lo, args.hue_hi) == HUE_BAND


def test_segment_cli_rejects_zero_threshold(tmp_path, capsys):
    px = np.zeros((60, 60, 3), dtype=np.uint8)
    px[20:40, 20:40] = (255, 0, 0)
    write_ppm(px, tmp_path / "in.ppm")
    rc = main(["segment", "--image", str(tmp_path / "in.ppm"), "--threshold", "0"])
    assert rc == 2
    assert "threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P6\nab 2\n255\n", "width is not an integer: 'ab'"),
        (b"P6\n2 1.5\n255\n", "height is not an integer: '1.5'"),
        (b"P6\n2 2\n2.5e2\n", "maxval is not an integer: '2.5e2'"),
        (b"P6\n-1 2\n255\n", "width must be positive, got -1"),
        (b"P6\n2 0\n255\n", "height must be positive, got 0"),
    ],
)
def test_segment_cli_names_the_file_and_field_of_a_bad_ppm_size(tmp_path, capsys, header, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(header + bytes(12))
    assert main(["segment", "--image", str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"error: {path}: PPM {message}"


@pytest.mark.parametrize(
    "option, named",
    [
        (["--side", "0"], "side"),
        (["--side", "-4"], "side"),
        (["--frame-size", "26"], "too small for the pose margins"),
        (["--frame-size", "27"], "too small for the pose margins"),
        (["--frame-size", "31"], "too small for the pose margins"),
        (["--samples", "-1"], "keep_frames must be >= 0"),
    ],
    ids=["side-0", "side-minus-4", "frame-26", "frame-27", "frame-31", "samples-minus-1"],
)
def test_malformed_synth_options_are_usage_errors(tmp_path, option, named, capsys):
    out = tmp_path / "shapes"
    assert main(["synth", "--out", str(out), "--n-per-class", "2", *option]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_synth_accepts_the_smallest_frame(tmp_path):
    assert main(["synth", "--out", str(tmp_path), "--n-per-class", "2", "--frame-size", "32"]) == 0
    assert (tmp_path / "manifest.json").exists()


def test_unknown_config_key_is_usage_error(blob_manifest, capsys):
    tmp, manifest, _ = blob_manifest
    cfg = tmp / "bad.json"
    cfg.write_text(json.dumps({"layer_sizes": [4], "Cs": [1, 1], "widgets": 3}))
    rc = main(["train", "--config", str(cfg), "--data", manifest, "--out", str(tmp / "m.bin")])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_values_are_usage_errors(blob_manifest, capsys):
    tmp, manifest, _ = blob_manifest
    cfg = tmp / "bad.json"
    bad_configs = [
        [1, 2],
        {"layer_sizes": 5, "Cs": [1e3, 1e6]},
        {"layer_sizes": "4", "Cs": [1e3, 1e6]},
        {"layer_sizes": [4], "Cs": 1e3},
        {"layer_sizes": [None], "Cs": [1e3, 1e6]},
        {"layer_sizes": [4], "Cs": [1e3, 1e6], "seed": None},
        {"layer_sizes": [4], "Cs": [1e3, 1e6], "head_size": None},
        # non-integral or boolean integers are refused, not truncated
        {"layer_sizes": [2.7], "Cs": [1, 1], "head_size": 3.9, "seed": True},
        {"layer_sizes": [2.7], "Cs": [1, 1]},
        {"layer_sizes": [True], "Cs": [1, 1]},
        {"layer_sizes": [4], "Cs": [1, 1], "head_size": 3.9},
        {"layer_sizes": [4], "Cs": [1, 1], "head_size": False},
        {"layer_sizes": [4], "Cs": [1, 1], "seed": 1.5},
        # ridge constants are JSON numbers: no strings, no booleans
        {"layer_sizes": [4], "Cs": ["1e3", 1e6]},
        {"layer_sizes": [4], "Cs": [1e3, True]},
    ]
    for bad in bad_configs:
        cfg.write_text(json.dumps(bad))
        for seed in ([], ["--seed", "3"]):
            rc = main(["train", "--config", str(cfg), "--data", manifest,
                       "--out", str(tmp / "m.bin"), *seed])
            assert rc == 2, bad
            err = capsys.readouterr().err
            assert "config" in err and "unknown config keys" not in err, (bad, err)
        if isinstance(bad, dict) and "seed" in bad:
            continue  # bench takes its seed from --seed, not from the config
        rc = main(["bench", "--data", manifest, "--out", str(tmp / "bench"), "--config", str(cfg)])
        assert rc == 2, bad
        assert "config" in capsys.readouterr().err
    assert not (tmp / "m.bin").exists()


@pytest.mark.parametrize(
    "manifest, named",
    [
        ([{"type": "csv"}], "JSON object"),
        # synthetic shapes come from `elmkit synth`, which writes an idx manifest
        ({"type": "synth", "n_per_class": 12, "noise": 0.25, "seed": 4}, "unknown type 'synth'"),
        ({"type": "csv"}, "'path'"),
        ({"type": "idx"}, "'images'"),
        ({"type": "idx", "images": "x.idx", "labels": "y.idx", "class_names": [1, 2, 3]}, "'class_names'"),
    ],
)
def test_malformed_manifest_is_usage_error(blob_manifest, manifest, named, capsys):
    tmp, _, config = blob_manifest
    bad = tmp / "bad_manifest.json"
    bad.write_text(json.dumps(manifest))
    model = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", str(bad), "--out", model]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err, err
    assert not (tmp / "model.bin").exists()
    _, good, _ = blob_manifest
    assert main(["train", "--config", config, "--data", good, "--out", model, "--seed", "5"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", model, "--data", str(bad), "--out", str(tmp / "eval")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and named in err, err


def test_csv_row_with_an_empty_label_is_usage_error(blob_manifest, capsys):
    tmp, good, config = blob_manifest
    (tmp / "rows.csv").write_text("a,b,label\n0.1,0.2,x\n0.3,0.4,\n0.5,0.6,y\n")
    bad = tmp / "csv_manifest.json"
    bad.write_text(json.dumps({"type": "csv", "path": "rows.csv"}))
    model = str(tmp / "model.bin")
    assert main(["train", "--config", config, "--data", str(bad), "--out", model]) == 2
    assert f"{tmp / 'rows.csv'}:3: empty label" in capsys.readouterr().err
    assert main(["train", "--config", config, "--data", good, "--out", model]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", model, "--data", str(bad), "--out", str(tmp / "eval")]) == 2
    assert f"{tmp / 'rows.csv'}:3: empty label" in capsys.readouterr().err
    assert not (tmp / "eval").exists()


def test_csv_field_over_the_csv_module_limit_is_usage_error(blob_manifest, capsys):
    # the csv module refuses a field longer than 131,072 characters; train names the file and line
    tmp, _, config = blob_manifest
    (tmp / "long.csv").write_text("a,b,label\n0.1,0.2,x\n0.3," + "4" * 200_000 + ",y\n")
    bad = tmp / "long_manifest.json"
    bad.write_text(json.dumps({"type": "csv", "path": "long.csv"}))
    assert main(["train", "--config", config, "--data", str(bad), "--out", str(tmp / "model.bin")]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith(f"error: {tmp / 'long.csv'}:3: field larger"), err
    assert "Traceback" not in err
    assert not (tmp / "model.bin").exists()
