"""The benchmark's workloads.

``shapes-train`` and ``digits-proxy`` repeat a train-then-score cycle on
fresh seeded data; ``shapes-frames`` repeats the frame pipeline that
``shapes-train`` starts with; ``active-stream`` feeds pre-rendered camera
frames one at a time to a trained model, the way a single closed-loop
client would.
Every call into elmkit goes through the module attribute
(``pipeline.hml_train`` rather than a bare name) so that a traced run
sees it.

Each workload has the same four steps: ``inputs`` makes the seeded inputs
the benchmark owns (not timed); ``warm_up`` pays first-call costs;
``setup`` builds what the timed loop needs; ``run`` measures until the
deadline.  Set-up time is ``warm_up`` plus ``setup``.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from elmkit import autoencoder, data, imaging, metrics, model_io, pipeline, shapes, sit2
from elmkit.numerics import NumericalError, Rng

import digits_proxy

SHAPES_CONFIG = pipeline.PipelineConfig((256, 256), (1e3, 1e7, 1e8), head="sit2", head_size=40, seed=1)
DIGITS_CONFIG = pipeline.PipelineConfig((300, 300), (1e-1, 1e4, 1e8), head="sit2", head_size=60, seed=1)
NOISE = 0.25  # the acceptance shapes noise level
PATCH_SIDE = 52
EKM_SAMPLE_ROWS = 8  # predicted rows per cycle whose SC midpoints are checked against ekm_reduce
EKM_RTOL = 1e-9
PREDICT_REPEATS = 3  # timed batch predictions per cycle, on top of the one the cycle makes
FAILURES = (NumericalError, ValueError)  # segmentation reports "no object" as ValueError
ACTIVE_THRESHOLD = 0.82  # vote share needed to decide, as in the acceptance stream test
ACTIVE_WINDOW = 120


class Checks:
    """Correctness failures seen during a run; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", flush=True)


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    samples: int


@dataclass
class RunResult:
    attempted: int
    failed: int
    run_s: Metric | None = None  # the gated metric a workload times itself; run.py adds setup_s and peak_rss_mb
    extra: list[Metric] = field(default_factory=list)  # workload-specific figures, printed only
    untraced_s: list[float] = field(default_factory=list)  # per traced unit, for the tracing overhead
    traced_s: list[float] = field(default_factory=list)


def percentile_metrics(prefix: str, seconds: list[float]) -> list[Metric]:
    """Median, and the highest of p90/p99 with at least ten samples beyond it, in ms."""
    n = len(seconds)
    out = [Metric(f"{prefix}_p50_ms", 1e3 * float(np.median(seconds)), "ms", n)]
    tail = next((p for p in (99, 90) if n * (100 - p) / 100.0 >= 10.0), None)
    if tail:
        out.append(Metric(f"{prefix}_p{tail}_ms", 1e3 * float(np.percentile(seconds, tail)), "ms", n))
    return out


def check_sc_against_ekm(model, x: np.ndarray, scores: np.ndarray, checks: Checks) -> None:
    """Each score must be the midpoint ekm_reduce gives for the same row and output."""
    feats = autoencoder.stack_transform(model.stack, model.scaler.transform(x))
    ekm = sit2.sit2_predict(model.head, feats, reducer="ekm")
    worst = float(np.max(np.abs(ekm - scores) / np.maximum(1.0, np.maximum(np.abs(ekm), np.abs(scores)))))
    checks.expect(worst <= EKM_RTOL, f"SC midpoint differs from ekm_reduce by {worst:.3e} relative (> {EKM_RTOL:g})")


@dataclass
class Cycle:
    model: pipeline.HmlModel  # as trained; ``scores`` come from its saved and reloaded copy
    test_x: np.ndarray
    test_labels: np.ndarray
    scores: np.ndarray
    seconds: float  # the whole cycle, as run_s counts it
    train_s: float
    decided: float  # share of the per-class episodes that active_classify decided
    frames_s: float = 0.0  # time spent rendering and segmenting, where the cycle does so
    frames: int = 0

    @property
    def accuracy(self) -> float:
        return float((np.argmax(self.scores, axis=1) == self.test_labels).mean())


def _train_and_score(train_x, train_labels, test_x, test_labels, config, out_dir, started: float, **frames) -> Cycle:
    """Train, save and reload the model, score the held-out rows with the reloaded
    copy, then feed each class's held-out scores, in order, to active_classify as
    one stream episode."""
    t0 = time.perf_counter()
    model = pipeline.hml_train(train_x, train_labels, config)
    t1 = time.perf_counter()
    path = os.path.join(out_dir, f"cycle-{os.getpid()}.model")
    try:
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
    finally:
        if os.path.exists(path):
            os.unlink(path)
    scores = pipeline.hml_predict(loaded, test_x)
    episodes = [scores[test_labels == cls] for cls in np.unique(test_labels)]
    decisions = [metrics.active_classify(e, ACTIVE_THRESHOLD, ACTIVE_WINDOW) for e in episodes]
    decided = sum(d.decision is not None for d in decisions) / len(decisions)
    t2 = time.perf_counter()
    return Cycle(model, test_x, test_labels, scores, t2 - started, t1 - t0, decided, **frames)


class TrainingWorkload:
    """Repeats ``cycle`` (train, then score a held-out split) until the deadline."""

    name = ""
    accuracy_floor = 0.0

    def cycle(self, seed: int, k: int, out_dir) -> Cycle:
        raise NotImplementedError

    def inputs(self, seed: int):
        return None

    def setup(self, inputs, seed: int, out_dir, checks: Checks):
        return out_dir  # the cycles' model files go there

    def run(self, state, seed: int, seconds: float, checks: Checks, tracer=None) -> RunResult:
        deadline = time.perf_counter() + seconds
        done: list[tuple] = []  # (seconds, train_s, accuracy, frames/s, decided share) per cycle
        predicted = [0, 0.0]  # rows scored and seconds spent by the timed batch predictions
        result = RunResult(0, 0)
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            result.attempted += 1
            try:
                c = self.cycle(seed, k, state)
                if tracer is not None:
                    with tracer.recording(k):
                        traced = self.cycle(seed, k, state)
                    checks.expect(
                        np.array_equal(traced.scores, c.scores),
                        f"cycle {k}: traced and untraced predictions differ",
                    )
                    result.untraced_s.append(c.seconds)
                    result.traced_s.append(traced.seconds)
                else:
                    self._time_predictions(c, predicted, checks)
            except FAILURES as exc:
                result.failed += 1
                print(f"cycle {k} failed: {type(exc).__name__}: {exc}", flush=True)
                k += 1
                continue
            checks.expect(
                c.accuracy >= self.accuracy_floor,
                f"cycle {k}: test accuracy {c.accuracy:.4f} is below the floor {self.accuracy_floor}",
            )
            sample = slice(0, EKM_SAMPLE_ROWS)
            check_sc_against_ekm(c.model, c.test_x[sample], c.scores[sample], checks)
            done.append((c.seconds, c.train_s, c.accuracy, c.frames / c.frames_s if c.frames else 0.0, c.decided))
            k += 1
        checks.expect(bool(done), "no cycle completed")
        if not done or tracer is not None:
            return result
        n = len(done)
        seconds_, train_s, accuracy, frame_rate, decided = (statistics.median(col) for col in zip(*done))
        result.run_s = Metric("run_s", seconds_, "s", n)
        result.extra.append(Metric("train_s", train_s, "s", n))
        result.extra.append(Metric("test_accuracy", accuracy, "fraction", n))
        # printed, not gated: on a shared 2-core host, batch throughput spread
        # by up to 0.27 of its median over ten seeds, wider than any bound
        result.extra.append(Metric("predict_rows_per_s", predicted[0] / predicted[1], "1/s", n * PREDICT_REPEATS))
        if frame_rate:
            result.extra.append(Metric("synth_frames_per_s", frame_rate, "1/s", n))
        result.extra.append(Metric("decided_fraction", decided, "fraction", n))
        return result

    @staticmethod
    def _time_predictions(c: Cycle, predicted: list, checks: Checks) -> None:
        for _ in range(PREDICT_REPEATS):
            t0 = time.perf_counter()
            again = pipeline.hml_predict(c.model, c.test_x)
            predicted[1] += time.perf_counter() - t0
            predicted[0] += c.test_x.shape[0]
            checks.expect(
                np.array_equal(again, c.scores),
                "the trained model's batch predictions differ from its reloaded copy's",
            )


class ShapesTrain(TrainingWorkload):
    """The acceptance shapes run: render 4 x 1200 frames, segment, split 70/30, train, score."""

    name = "shapes-train"
    per_class = 1200
    test_fraction = 0.3
    accuracy_floor = 0.95  # the acceptance floor
    warm_per_class = 25

    def warm_up(self, inputs, seed: int, out_dir) -> None:
        ds, _ = shapes.synth_shape_dataset(self.warm_per_class, NOISE, Rng(seed, 1 << 40))
        train, test = data.split_train_test(ds, self.test_fraction, Rng(seed, (1 << 40) + 1))
        _train_and_score(train.x, train.labels, test.x, test.labels, SHAPES_CONFIG, out_dir, time.perf_counter())

    def cycle(self, seed: int, k: int, out_dir) -> Cycle:
        t0 = time.perf_counter()
        ds, _ = shapes.synth_shape_dataset(self.per_class, NOISE, Rng(seed, 2 * k))
        frames_s = time.perf_counter() - t0
        train, test = data.split_train_test(ds, self.test_fraction, Rng(seed, 2 * k + 1))
        return _train_and_score(
            train.x, train.labels, test.x, test.labels, SHAPES_CONFIG, out_dir, t0, frames_s=frames_s, frames=ds.n_samples
        )


class DigitsProxy(TrainingWorkload):
    """Seeded 784-feature, 10-class rows with the digits config; no imaging work."""

    name = "digits-proxy"
    train_rows = 3000
    test_rows = 1000
    # fixed from the first measurement at this size: a median of 0.888 over ten
    # seeds (0.884 to 0.902), so a cycle below 0.84 means the model got worse,
    # not an unlucky draw
    accuracy_floor = 0.84
    warm_rows = 500

    def warm_up(self, inputs, seed: int, out_dir) -> None:
        x, labels = digits_proxy.make_rows(self.warm_rows, (seed, 1 << 40))
        cut = self.warm_rows * 4 // 5
        _train_and_score(x[:cut], labels[:cut], x[cut:], labels[cut:], DIGITS_CONFIG, out_dir, time.perf_counter())

    def cycle(self, seed: int, k: int, out_dir) -> Cycle:
        x, labels = digits_proxy.make_rows(self.train_rows + self.test_rows, (seed, k))
        cut = self.train_rows
        return _train_and_score(
            x[:cut], labels[:cut], x[cut:], labels[cut:], DIGITS_CONFIG, out_dir, time.perf_counter()
        )


class ShapesFrames:
    """The frame pipeline alone: render a seeded batch of 4 x 25 frames and
    segment them into 52 x 52 patches, the part of ``shapes-train`` that comes
    before training."""

    name = "shapes-frames"
    per_class = 25

    def inputs(self, seed: int):
        return None

    def warm_up(self, inputs, seed: int, out_dir) -> None:
        shapes.synth_shape_dataset(2, NOISE, Rng(seed, 1 << 40))

    def setup(self, inputs, seed: int, out_dir, checks: Checks):
        return None

    def _batch(self, seed: int, k: int):
        t0 = time.perf_counter()
        ds, _ = shapes.synth_shape_dataset(self.per_class, NOISE, Rng(seed, k))
        return time.perf_counter() - t0, ds

    def _check(self, ds, k: int, checks: Checks) -> None:
        labels = np.repeat(np.arange(len(shapes.SHAPE_KINDS)), self.per_class)  # class-major
        checks.expect(np.array_equal(ds.labels, labels), f"batch {k}: labels are not class-major")
        checks.expect(bool(np.isin(ds.x, (0.0, 1.0)).all()), f"batch {k}: a patch is not binary")
        checks.expect(bool((ds.x.sum(axis=1) > 0).all()), f"batch {k}: a patch holds no object pixel")

    def run(self, state, seed: int, seconds: float, checks: Checks, tracer=None) -> RunResult:
        deadline = time.perf_counter() + seconds
        result = RunResult(0, 0)
        times = []
        first = None  # (k, patches) of the first batch, rendered again at the end
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            result.attempted += 1
            try:
                seconds_, ds = self._batch(seed, k)
                if tracer is not None:
                    with tracer.recording(k):
                        traced_s, traced = self._batch(seed, k)
                    checks.expect(np.array_equal(traced.x, ds.x), f"batch {k}: traced and untraced patches differ")
                    result.untraced_s.append(seconds_)
                    result.traced_s.append(traced_s)
            except FAILURES as exc:
                result.failed += 1
                print(f"batch {k} failed: {type(exc).__name__}: {exc}", flush=True)
                k += 1
                continue
            self._check(ds, k, checks)
            first = first or (k, ds.x)
            times.append(seconds_)
            k += 1
        checks.expect(bool(times), "no batch completed")
        if first is not None:
            _, again = self._batch(seed, first[0])
            checks.expect(np.array_equal(again.x, first[1]), "the same seed rendered different patches")
        if not times or tracer is not None:
            return result
        n = len(times)
        batch_s = statistics.median(times)
        result.run_s = Metric("run_s", batch_s, "s", n)
        result.extra.append(Metric("synth_frames_per_s", len(shapes.SHAPE_KINDS) * self.per_class / batch_s, "1/s", n))
        result.extra += percentile_metrics("batch_latency", times)
        return result


@dataclass
class StreamState:
    model: pipeline.HmlModel
    frames: list  # pre-rendered ImageFrames
    labels: np.ndarray


@dataclass
class FrameOutcome:
    seconds: float  # segment_object through active_classify
    predict_s: float
    scores: np.ndarray
    decision: metrics.ActiveDecision | None  # None until the episode holds min_frames scores

    @property
    def decided(self) -> int | None:
        return None if self.decision is None else self.decision.decision


class ActiveStream:
    """One closed-loop client classifying pre-rendered camera frames one at a time.

    Episodes cycle through the classes.  Each frame goes through
    segment_object, extract_patch, a one-row hml_predict and active_classify
    over the episode's scores so far.  An episode ends when it decides or
    when its window is spent.
    """

    name = "active-stream"
    train_per_class = 500  # the model's training frames, rendered once as benchmark input
    pool_per_class = 100  # pre-rendered frames the episodes draw from
    # a single vote always clears the threshold, so the client asks for a
    # decision only once this many frames have been scored
    min_frames = 5
    warm_rows = 100

    def __init__(self):
        self.setup_train_s: list[float] = []

    def inputs(self, seed: int):
        ds, _ = shapes.synth_shape_dataset(self.train_per_class, NOISE, Rng(seed, 0))
        return ds

    def warm_up(self, ds, seed: int, out_dir) -> None:
        rows = slice(None, None, ds.n_samples // self.warm_rows)  # the dataset is ordered by class
        model = pipeline.hml_train(ds.x[rows], ds.labels[rows], SHAPES_CONFIG)
        pipeline.hml_predict(model, ds.x[:1])

    def setup(self, ds, seed: int, out_dir, checks: Checks) -> StreamState:
        t0 = time.perf_counter()
        trained = pipeline.hml_train(ds.x, ds.labels, SHAPES_CONFIG)
        self.setup_train_s.append(time.perf_counter() - t0)
        path = os.path.join(out_dir, f"stream-{os.getpid()}.model")
        try:
            model_io.save_model(trained, path)
            model = model_io.load_model(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        probe = ds.x[:64]
        checks.expect(
            np.array_equal(pipeline.hml_predict(model, probe), pipeline.hml_predict(trained, probe)),
            "the loaded model scores differently from the trained one",
        )
        _, frames = shapes.synth_shape_dataset(self.pool_per_class, NOISE, Rng(seed, 1), keep_frames=self.pool_per_class)
        labels = np.repeat(np.arange(len(shapes.SHAPE_KINDS)), self.pool_per_class)  # class-major, like the frames
        return StreamState(model, frames, labels)

    def _frame(self, model, frame, scores_so_far: list) -> FrameOutcome:
        t0 = time.perf_counter()
        mask, centroid = imaging.segment_object(frame, *shapes.HUE_BAND)
        patch = imaging.extract_patch(mask, centroid, PATCH_SIDE)
        t1 = time.perf_counter()
        scores = pipeline.hml_predict(model, patch[None, :])
        t2 = time.perf_counter()
        scores_so_far.append(scores[0])
        decision = None
        if len(scores_so_far) >= self.min_frames:
            decision = metrics.active_classify(np.array(scores_so_far), ACTIVE_THRESHOLD, ACTIVE_WINDOW)
        return FrameOutcome(time.perf_counter() - t0, t2 - t1, scores, decision)

    def run(self, state: StreamState, seed: int, seconds: float, checks: Checks, tracer=None) -> RunResult:
        deadline = time.perf_counter() + seconds
        gen = Rng(seed, 2).generator()
        result = RunResult(0, 0)
        outcomes: list[FrameOutcome] = []
        hits = 0
        episodes = []  # (true class, decision or None, frames used) for finished episodes
        sampled = []  # (frame, scores) kept for the ekm check
        n_classes = len(shapes.SHAPE_KINDS)
        e = 0
        while time.perf_counter() < deadline:
            cls = e % n_classes
            e += 1
            pool = np.flatnonzero(state.labels == cls)
            so_far: list = []
            decided = None
            while len(so_far) < ACTIVE_WINDOW and time.perf_counter() < deadline:
                frame = state.frames[int(gen.choice(pool))]
                result.attempted += 1
                try:
                    out = self._frame(state.model, frame, so_far)
                    if tracer is not None:
                        traced_so_far = list(so_far[:-1])
                        with tracer.recording(result.attempted - 1):
                            traced = self._frame(state.model, frame, traced_so_far)
                        checks.expect(
                            np.array_equal(traced.scores, out.scores) and traced.decided == out.decided,
                            f"frame {result.attempted}: traced and untraced results differ",
                        )
                        result.untraced_s.append(out.seconds)
                        result.traced_s.append(traced.seconds)
                except FAILURES as exc:
                    result.failed += 1
                    print(f"frame {result.attempted} failed: {type(exc).__name__}: {exc}", flush=True)
                    continue
                outcomes.append(out)
                hits += int(np.argmax(out.scores[0]) == cls)
                if len(sampled) < EKM_SAMPLE_ROWS:
                    sampled.append((frame, out.scores[0]))
                if out.decided is not None:
                    decided = out.decided
                    break
            if decided is not None or len(so_far) == ACTIVE_WINDOW:
                episodes.append((cls, decided, len(so_far)))
        checks.expect(bool(outcomes), "no frame was classified")
        if sampled:
            patches = []
            for frame, _ in sampled:
                mask, centroid = imaging.segment_object(frame, *shapes.HUE_BAND)
                patches.append(imaging.extract_patch(mask, centroid, PATCH_SIDE))
            check_sc_against_ekm(state.model, np.array(patches), np.array([s for _, s in sampled]), checks)
        if not outcomes or tracer is not None:
            return result
        n = len(outcomes)
        latency = [o.seconds for o in outcomes]
        # means, not medians: one-frame latencies fall in two modes whose shares
        # drift from run to run on a shared host, so the median jumps between them
        result.run_s = Metric("run_s", statistics.fmean(latency), "s", n)
        result.extra.append(Metric("train_s", statistics.median(self.setup_train_s), "s", len(self.setup_train_s)))
        result.extra.append(Metric("test_accuracy", hits / n, "fraction", n))
        result.extra.append(Metric("predict_rows_per_s", n / sum(o.predict_s for o in outcomes), "1/s", n))
        result.extra += percentile_metrics("frame_latency", latency)
        settled = [(c, d, u) for c, d, u in episodes if d is not None]
        if episodes:
            result.extra.append(Metric("decided_fraction", len(settled) / len(episodes), "fraction", len(episodes)))
        if settled:
            n_decided = len(settled)
            used = statistics.fmean(u for _, _, u in settled)
            right = sum(c == d for c, d, _ in settled) / n_decided
            result.extra.append(Metric("mean_frames_to_decision", used, "frames", n_decided))
            result.extra.append(Metric("decision_accuracy", right, "fraction", n_decided))
        return result


WORKLOADS = {w.name: w for w in (ShapesTrain, DigitsProxy, ShapesFrames, ActiveStream)}
