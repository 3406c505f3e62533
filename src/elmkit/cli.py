"""Command-line front end: train, eval, bench, oracle, synth, segment.

Exit codes: 0 success, 2 usage or data errors, 3 numerical failures.
Reports are JSON with a fixed key set per subcommand; all file writes go
through a temp-file-then-rename step.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .data import LabeledDataset, load_csv, load_idx, save_idx, split_train_test, write_atomic
from .elm import predict_labels
from .imaging import read_ppm, segment_object, write_ppm
from .metrics import accuracy, confusion_counts, per_class_accuracy, simulate_streams, write_confusion_csv
from .model_io import load_model, save_model
from .numerics import NumericalError, Rng
from .pipeline import PipelineConfig, hml_predict, hml_train
from .shapes import HUE_BAND, synth_shape_dataset
from .type_reduction import brute_force_cos, ekm_reduce, nt_defuzz, sc_reduce

ORACLE_TOLERANCE = 1e-9


def _write_json(obj, path) -> None:
    write_atomic(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def _load_json(path, what):
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{what} {path} is not valid JSON: {e}") from None


def load_manifest(path) -> LabeledDataset:
    """Resolve a dataset manifest: {'type': 'idx'|'csv', ...}; a malformed one is a ValueError."""
    manifest = _load_json(path, "manifest")
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path} must be a JSON object, got {type(manifest).__name__}")
    base = os.path.dirname(os.path.abspath(path))

    def field(name, ok, what):
        if not ok(manifest.get(name)):
            raise ValueError(f"manifest {path} field {name!r} must be {what}, got {manifest.get(name)!r}")
        return manifest[name]

    def file_field(name):
        return os.path.join(base, field(name, lambda v: isinstance(v, str), "a file name"))

    kind = manifest.get("type")
    if kind == "idx":
        ds = load_idx(file_field("images"), file_field("labels"))
        if "class_names" in manifest:
            names = field("class_names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v),
                          "a list of strings")
            ds = LabeledDataset(ds.x, ds.labels, tuple(names))
        return ds
    if kind == "csv":
        return load_csv(file_field("path"))
    raise ValueError(f"manifest {path} has unknown type {kind!r}")


def cmd_train(args) -> int:
    if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):  # refused before the data is loaded
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), args.out)
    config = PipelineConfig.from_dict(_load_json(args.config, "config"))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    ds = load_manifest(args.data)
    model = hml_train(ds.x, ds.labels, config)
    save_model(model, args.out)
    report = {
        "command": "train",
        "version": 1,
        "config": config.to_dict(),
        "data": os.path.abspath(args.data),
        "model_path": os.path.abspath(args.out),
        "n_samples": ds.n_samples,
        "n_features": ds.n_features,
        "n_classes": ds.n_classes,
        "phase_seconds": {
            "feature_stack": model.metrics.stack_seconds,
            "head": model.metrics.head_seconds,
            "total": model.metrics.total_seconds,
        },
        "train_accuracy": model.metrics.train_accuracy,
    }
    _write_json(report, args.out + ".train.json")
    print(f"trained {config.head} head on {ds.n_samples} samples: "
          f"accuracy {model.metrics.train_accuracy:.4f} "
          f"({model.metrics.total_seconds:.1f}s)")
    return 0


def cmd_eval(args) -> int:
    # checked before anything is loaded or written, so a bad option leaves no output
    if args.threshold is not None and not 0.0 < args.threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {args.threshold}")
    if args.window < 1:
        raise ValueError(f"window must be >= 1, got {args.window}")
    if args.episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {args.episodes}")
    model = load_model(args.model)
    ds = load_manifest(args.data)
    t0 = time.perf_counter()
    scores = hml_predict(model, ds.x)
    seconds_per_frame = (time.perf_counter() - t0) / max(ds.n_samples, 1)
    if ds.n_classes < scores.shape[1]:
        raise ValueError(f"manifest {args.data} has {ds.n_classes} classes, fewer than the "
                         f"{scores.shape[1]} that model {args.model} scores")
    os.makedirs(args.out, exist_ok=True)
    pred = predict_labels(scores)
    counts = confusion_counts(ds.labels, pred, ds.n_classes)
    confusion_path = os.path.join(args.out, "confusion.csv")
    write_confusion_csv(counts, ds.class_names, confusion_path)
    active = None
    if args.threshold is not None:
        episodes = simulate_streams(
            scores, ds.labels, args.threshold, args.window, args.episodes, Rng(args.seed)
        )
        decided = [(cls, d) for cls, d in episodes if d.decision is not None]
        correct = [1 for cls, d in decided if d.decision == cls]
        active = {
            "threshold": args.threshold,
            "window": args.window,
            "episodes": len(episodes),
            "decided": len(decided),
            "decided_fraction": len(decided) / len(episodes) if episodes else 0.0,
            "correct_fraction": sum(correct) / len(episodes) if episodes else 0.0,
        }
    report = {
        "command": "eval",
        "version": 1,
        "model": os.path.abspath(args.model),
        "data": os.path.abspath(args.data),
        "n_samples": ds.n_samples,
        "overall_accuracy": accuracy(counts),
        "per_class_accuracy": per_class_accuracy(counts).tolist(),
        "inference_seconds_per_frame": seconds_per_frame,
        "confusion_csv": os.path.abspath(confusion_path),
        "active": active,
    }
    _write_json(report, os.path.join(args.out, "metrics.json"))
    print(f"accuracy {report['overall_accuracy']:.4f} on {ds.n_samples} samples")
    if active:
        print(f"active: {active['decided']}/{active['episodes']} decided, "
              f"{active['correct_fraction']:.3f} correct")
    return 0


DEFAULT_BENCH = {"layer_sizes": [256, 256], "Cs": [1e3, 1e7, 1e8], "head_size": 40, "elm_hidden": 1600}


def cmd_bench(args) -> int:
    ds = load_manifest(args.data)
    cfg = dict(DEFAULT_BENCH)
    if args.config:
        user = _load_json(args.config, "config")
        if not isinstance(user, dict):
            raise ValueError(f"config must be a JSON object, got {type(user).__name__}")
        cfg.update(user)
    if args.seed is not None:
        cfg["seed"] = args.seed
    elm_hidden = cfg.pop("elm_hidden")
    base = PipelineConfig.from_dict(cfg)
    pipelines = (
        ("elm", replace(base, layer_sizes=(), cs=base.cs[-1:], head="elm", head_size=elm_hidden)),
        ("ml-elm", replace(base, head="ridge")),
        ("hml-elm", replace(base, head="sit2")),
    )
    train, test = split_train_test(ds, args.test_fraction, Rng(base.seed).split(777))
    rows = []
    for name, pipe_cfg in pipelines:
        model = hml_train(train.x, train.labels, pipe_cfg)
        test_acc = (predict_labels(hml_predict(model, test.x)) == test.labels).mean()
        head_layer = [] if pipe_cfg.head == "ridge" else [pipe_cfg.head_size]  # a ridge readout has no layer
        rows.append(
            {
                "model": name,
                "structure": [train.n_features, *pipe_cfg.layer_sizes, *head_layer, ds.n_classes],
                "train_accuracy": model.metrics.train_accuracy,
                "test_accuracy": float(test_acc),
                "train_seconds": model.metrics.total_seconds,
            }
        )

    report = {
        "command": "bench",
        "version": 1,
        "data": os.path.abspath(args.data),
        "seed": base.seed,
        "test_fraction": args.test_fraction,
        "rows": rows,
    }
    os.makedirs(args.out, exist_ok=True)
    _write_json(report, os.path.join(args.out, "bench.json"))
    print(f"{'model':10s} {'train':>8s} {'test':>8s} {'seconds':>9s}")
    for row in rows:
        print(
            f"{row['model']:10s} {row['train_accuracy']:8.4f} "
            f"{row['test_accuracy']:8.4f} {row['train_seconds']:9.2f}"
        )
    return 0


def run_reducer_suite(trials: int, max_rules: int, seed: int) -> dict:
    """Random-instance agreement suite: sweep reducers against the oracle, one call per rule count."""
    gen = Rng(seed).generator()
    groups = {}  # rule count -> the (lower, upper, w) rows drawn with it, in draw order
    t0 = time.perf_counter()
    for trial in range(trials):
        m = int(gen.integers(2, max_rules + 1))
        upper = gen.uniform(0.0, 1.0, m)
        upper[gen.integers(m)] = 1.0
        lower = upper * gen.uniform(0.0, 1.0, m)
        style = trial % 4
        if style == 1:
            lower[gen.uniform(size=m) < 0.3] = 0.0
        elif style == 2:
            lower[:] = 0.0
        elif style == 3:
            lower = upper.copy()
        groups.setdefault(m, []).append((lower, upper, gen.uniform(-10.0, 10.0, m)))
    worst_sc = worst_ekm = 0.0
    nt_contained = True
    for rows in groups.values():
        lower, upper, w = (np.array(a) for a in zip(*rows))
        ref = np.array(brute_force_cos(lower, upper, w)[:2])  # (y_l, y_r) per row
        scale = np.maximum(1.0, np.abs(ref).max(axis=0))

        def rel_error(reduce):
            return float((np.abs(np.array(reduce(lower, upper, w)[:2]) - ref) / scale).max())

        worst_sc = max(worst_sc, rel_error(sc_reduce))
        worst_ekm = max(worst_ekm, rel_error(ekm_reduce))
        y_nt = nt_defuzz(lower, upper, w)
        nt_contained &= bool(np.all((ref[0] - 1e-12 * scale <= y_nt) & (y_nt <= ref[1] + 1e-12 * scale)))
    return {
        "command": "oracle",
        "version": 1,
        "trials": trials,
        "max_rules": max_rules,
        "seed": seed,
        "max_rel_error_sc": worst_sc,
        "max_rel_error_ekm": worst_ekm,
        "nt_contained": nt_contained,
        "tolerance": ORACLE_TOLERANCE,
        "seconds": time.perf_counter() - t0,
    }


def cmd_oracle(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    if not 2 <= args.max_rules <= 20:
        raise ValueError("oracle guard: max-rules must be within [2, 20]")
    report = run_reducer_suite(args.trials, args.max_rules, args.seed)
    if args.out:
        _write_json(report, args.out)
    print(
        f"{report['trials']} trials, <= {report['max_rules']} rules: "
        f"max rel error sc {report['max_rel_error_sc']:.3e}, "
        f"ekm {report['max_rel_error_ekm']:.3e} ({report['seconds']:.2f}s)"
    )
    ok = (
        report["max_rel_error_sc"] < ORACLE_TOLERANCE
        and report["max_rel_error_ekm"] < ORACLE_TOLERANCE
        and report["nt_contained"]
    )
    if not ok:
        print("reducer agreement FAILED tolerance", file=sys.stderr)
        return 3
    return 0


def cmd_synth(args) -> int:
    ds, samples = synth_shape_dataset(
        args.n_per_class,
        args.noise,
        Rng(args.seed),
        frame_shape=(args.frame_size, args.frame_size),
        side=args.side,
        keep_frames=args.samples,
    )
    os.makedirs(args.out, exist_ok=True)
    images_path = os.path.join(args.out, "images.idx")
    labels_path = os.path.join(args.out, "labels.idx")
    save_idx(ds.x, ds.labels, images_path, labels_path, args.side, args.side)
    manifest = {
        "type": "idx",
        "images": "images.idx",
        "labels": "labels.idx",
        "class_names": list(ds.class_names),
    }
    _write_json(manifest, os.path.join(args.out, "manifest.json"))
    for i, frame in enumerate(samples):
        write_ppm(frame, os.path.join(args.out, f"sample_{i:03d}.ppm"))
    print(f"wrote {ds.n_samples} patches ({len(ds.class_names)} classes) to {args.out}")
    return 0


def cmd_segment(args) -> int:
    mask, centroid = segment_object(read_ppm(args.image), args.hue_lo, args.hue_hi, args.threshold)
    if args.out:
        write_ppm(mask, args.out)
    print(json.dumps({"centroid_row": centroid[0], "centroid_col": centroid[1]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="elmkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config and a dataset manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a dataset manifest")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="also run the active-classification stream simulation")
    p.add_argument("--window", type=int, default=120)
    p.add_argument("--episodes", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench", help="compare elm / ml-elm / hml-elm on one dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--test-fraction", type=float, default=0.3)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("oracle", help="check the reducers against the exhaustive oracle")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--max-rules", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("synth", help="emit a synthetic-shape patch dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-class", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frame-size", type=int, default=120)
    p.add_argument("--side", type=int, default=52)
    p.add_argument("--samples", type=int, default=3,
                   help="rendered frames kept per class for inspection")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("segment", help="run the segmentation pipeline on a PPM image")
    p.add_argument("--image", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--hue-lo", type=float, default=HUE_BAND[0])
    p.add_argument("--hue-hi", type=float, default=HUE_BAND[1])
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(fn=cmd_segment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
