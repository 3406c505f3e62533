"""elmkit benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload shapes-train --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, one child process each

The program under test is the ``elmkit`` package in ``src/`` next to this
directory.  BLAS threads are pinned to one before numpy loads, because the
thread count changes model bytes.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports per-layer figures from
spans recorded around calls into elmkit, plus the cost of tracing.  The
last line of standard output is the JSON result; the exit code is 1 when
a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("shapes-train", "digits-proxy", "shapes-frames", "active-stream")
# set-ups timed per run, each in a process that has not run elmkit yet: this
# one and SETUP_PROCESSES - 1 children; setup_s is their median
SETUP_PROCESSES = 5
# one BLAS thread: on a 2-core host, two threads made runs slower and noisier,
# and one thread gives the same model bytes on any host
BLAS_THREADS = 1

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up on the pickled inputs at this path, print it, exit
    p.add_argument("--setup-only", metavar="INPUTS", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in its own process; print everything, fail if any fails."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    missing = False
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {proc.returncode})", flush=True)
            status = 1
            missing = True
            continue
        status = status or proc.returncode
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = metric
    if not missing:  # a partial result would read as a whole one
        print(json.dumps(merged))
    return status


def environment() -> dict:
    import platform

    import numpy
    import scipy

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import elmkit

    if not Path(elmkit.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"elmkit was imported from {elmkit.__file__}, not from this checkout's src/", file=sys.stderr)
        return 2

    import resource
    import statistics

    from spans import Tracer
    from workloads import WORKLOADS, Checks

    import_s = time.perf_counter() - t0
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    checks = Checks()
    if args.setup_only:
        with open(args.setup_only, "rb") as f:
            inputs = pickle.load(f)
        seconds, _ = timed_setup(workload, inputs, args.seed, out_dir, checks)
        print(json.dumps({"setup_s": import_s + seconds, "setup_train_s": getattr(workload, "setup_train_s", [])}))
        return 0 if not checks.failures else 1

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    inputs = workload.inputs(args.seed)

    if args.trace == 0:
        seconds, state = timed_setup(workload, inputs, args.seed, out_dir, checks)
        setup_s = [import_s + seconds]
        for child in child_setups(args, inputs, out_dir, checks):
            setup_s.append(child["setup_s"])
            if child["setup_train_s"]:  # the stream trains its model in set-up
                workload.setup_train_s += child["setup_train_s"]
        result = workload.run(state, args.seed, args.seconds, checks)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reported = [("setup_s", statistics.median(setup_s), "s", len(setup_s))]
        if result.run_s is not None:  # None when no operation completed, which fails a check
            reported.append(("run_s", result.run_s.value, result.run_s.unit, result.run_s.samples))
        reported.append(("peak_rss_mb", peak_mb, "MB", 1))
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in reported}
        reported += [(m.name, m.value, m.unit, m.samples) for m in result.extra]
    else:
        tracer = Tracer()
        workload.warm_up(inputs, args.seed, out_dir)
        with tracer.recording(-1):
            state = workload.setup(inputs, args.seed, out_dir, checks)
        result = workload.run(state, args.seed, args.seconds, checks, tracer)
        layers = tracer.per_layer()
        layers.update(tracer.computed_counts())
        units = len(result.traced_s)
        overhead = statistics.median(result.traced_s) / statistics.median(result.untraced_s) - 1.0 if units else 0.0
        layers["trace.overhead_fraction"] = overhead
        layers["trace.units"] = units
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in layers.items()}
        reported = [(name, m["value"], m["unit"], units) for name, m in metrics.items()]
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json",
                     {"environment": env, "workload": args.workload, "seed": args.seed, "per_layer": layers})

    failed_fraction = result.failed / result.attempted if result.attempted else 0.0
    reported.append(("failed_fraction", failed_fraction, "fraction", result.attempted))
    for name, value, unit, samples in reported:
        print(f"{args.workload}  {name} = {value:.6g} {unit}  (n={samples})", flush=True)
    correct = not checks.failures
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def timed_setup(workload, inputs, seed, out_dir, checks):
    """(seconds, state) for the warm-up plus the set-up."""
    t0 = time.perf_counter()
    workload.warm_up(inputs, seed, out_dir)
    state = workload.setup(inputs, seed, out_dir, checks)
    return time.perf_counter() - t0, state


def child_setups(args, inputs, out_dir: Path, checks) -> list[dict]:
    """Cold set-up times, import included, from fresh processes given the same inputs."""
    path = out_dir / f"inputs-{os.getpid()}.pkl"
    with open(path, "wb") as f:
        pickle.dump(inputs, f)
    times = []
    try:
        for _ in range(SETUP_PROCESSES - 1):
            cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
                   "--setup-only", str(path)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:  # the child's failed checks
                print(line, flush=True)
            checks.expect(proc.returncode == 0, f"a set-up process failed (exit code {proc.returncode})")
            if proc.returncode == 0:
                times.append(json.loads(lines[-1]))
    finally:
        path.unlink()
    return times


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "self_s": "s",
        "calls": "count",
        "rows": "count",
        "gram_order": "count",
        "solves": "count",
        "cholesky_flops": "flop",
        "gram_bytes": "B",
        "degenerate_row_fraction": "fraction",
        "overhead_fraction": "fraction",
        "units": "count",
    }[suffix]


if __name__ == "__main__":
    sys.exit(main())
