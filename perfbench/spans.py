"""Spans around calls into elmkit's public functions, recorded from outside the package.

``Tracer.recording(unit)`` swaps each traced function for a wrapper in
every elmkit module that binds it (``elmkit.sit2.sc_reduce_batch`` as well
as ``elmkit.type_reduction.sc_reduce_batch``), and puts the originals back
on exit, so code outside the block runs untouched.  Spans live in memory
until ``write`` dumps them.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
import time
from dataclasses import dataclass


def _rows_of(arg_index):
    def rows(args, kwargs, result):
        return int(len(args[arg_index])) if len(args) > arg_index else None

    return rows


def _no_rows(args, kwargs, result):
    return None


# (module, function, rows-from-call); rows counts the sample rows a call handled
TRACED = (
    ("shapes", "synth_shape", _no_rows),
    ("imaging", "segment_object", _no_rows),
    ("imaging", "rgb_to_hsv", _no_rows),
    ("imaging", "extract_patch", _no_rows),
    ("autoencoder", "ae_train", _rows_of(0)),
    ("autoencoder", "stack_transform", _rows_of(1)),
    ("numerics", "ridge_solve", _rows_of(0)),
    ("numerics", "pseudo_inverse", _rows_of(0)),
    ("numerics", "orthonormal_random", _no_rows),
    ("sit2", "sit2_train", _rows_of(0)),
    ("sit2", "sit2_predict", _rows_of(1)),
    ("type_reduction", "firing_batch", _rows_of(1)),
    ("type_reduction", "sc_reduce_batch", _rows_of(0)),
    ("pipeline", "hml_train", _rows_of(0)),
    ("pipeline", "hml_predict", _rows_of(1)),
    ("metrics", "active_classify", _rows_of(0)),
    ("model_io", "save_model", _no_rows),
    ("model_io", "load_model", _no_rows),
)

# ae_train spans are named per layer mode; these are the modes the configs reach
AE_MODES = ("compressed", "equal")


def layer_names() -> list[str]:
    """Span names, in report order."""
    names = []
    for module, func, _ in TRACED:
        if func == "ae_train":
            names += [f"{module}.{func}.{mode}" for mode in AE_MODES]
        else:
            names.append(f"{module}.{func}")
    return names


def counted_fields(name: str) -> tuple[str, ...]:
    module, func = name.split(".")[:2]
    rows = next(r for m, f, r in TRACED if (m, f) == (module, func))
    return ("calls", "self_s") if rows is _no_rows else ("calls", "self_s", "rows")


HEAD_COUNTS = (
    "sit2.computed.gram_order",
    "sit2.computed.solves",
    "sit2.computed.cholesky_flops",
    "sit2.computed.gram_bytes",
)


def head_counts(x, t, n_rules, refine, **_) -> dict:
    """Computed size of the head's ridge solves for one ``sit2_train`` call.

    The solve runs on the primal Gram (order n_rules * (n_inputs + 1)) when
    that is no larger than the row count, else on the dual Gram (order
    rows); refinement adds one solve per class.
    """
    rows, n_inputs = x.shape
    width = n_rules * (n_inputs + 1)
    order = width if width <= rows else rows
    solves = 1 + (t.shape[1] if refine else 0)
    return dict(zip(HEAD_COUNTS, (order, solves, solves * order**3 / 3.0, 8 * order**2)))


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    unit: int  # -1 for the set-up, k for operation k
    rows: int | None


class Tracer:
    """Records spans for the calls made inside ``recording`` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.heads: list[tuple[int, dict]] = []  # (unit, computed head counts) per sit2_train call
        self.firing: list[tuple[int, int, int]] = []  # (unit, rows, all-lower-zero rows) per firing_batch call
        self._stack: list[int] = []
        self._unit = -1

    def _wrap(self, module: str, func: str, original, rows_of):
        base = f"{module}.{func}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(base, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self._unit, None)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if func == "ae_train":
                span.name = f"{base}.{result.mode}"
            span.rows = rows_of(args, kwargs, result)
            if base == "sit2.sit2_train":
                bound = inspect.signature(original).bind(*args, **kwargs)
                bound.apply_defaults()
                self.heads.append((self._unit, head_counts(**bound.arguments)))
            elif base == "type_reduction.firing_batch":
                lower = result[0]
                self.firing.append((self._unit, lower.shape[0], int((~(lower > 0.0).any(axis=1)).sum())))
            return result

        return wrapper

    @contextlib.contextmanager
    def recording(self, unit: int):
        """Trace every call made inside the block as part of ``unit``."""
        patched = []
        for module, func, rows_of in TRACED:
            original = getattr(sys.modules[f"elmkit.{module}"], func)
            wrapper = self._wrap(module, func, original, rows_of)
            for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "elmkit"]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, original))
        self._unit = unit
        try:
            yield
        finally:
            for mod, attr, original in patched:
                setattr(mod, attr, original)
            self._unit = -1

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def per_layer(self) -> dict[str, float]:
        """Each layer's calls, self_s and rows for the set-up plus the mean operation.

        A layer a unit never calls counts as zero in that unit.  The mean, not
        the median: the stream calls active_classify on only some frames.
        """
        units: dict[int, dict[str, float]] = {}
        for s, own in zip(self.spans, self.self_times()):
            u = units.setdefault(s.unit, {})
            u[f"{s.name}.calls"] = u.get(f"{s.name}.calls", 0) + 1
            u[f"{s.name}.self_s"] = u.get(f"{s.name}.self_s", 0.0) + own
            if s.rows is not None:
                u[f"{s.name}.rows"] = u.get(f"{s.name}.rows", 0) + s.rows
        setup = units.get(-1, {})
        ops = [u for k, u in units.items() if k >= 0] or [{}]
        out = {}
        for name in layer_names():
            for field in counted_fields(name):
                key = f"{name}.{field}"
                out[key] = setup.get(key, 0) + statistics.fmean(u.get(key, 0) for u in ops)
        return out

    def computed_counts(self) -> dict[str, float]:
        """Head sizes of the first traced ``sit2_train`` call, and the share of
        firing rows whose lower band is all zero, over the set-up and the first
        traced operation.  Both repeat exactly for a given seed."""
        out = dict(self.heads[0][1]) if self.heads else dict.fromkeys(HEAD_COUNTS, 0)
        first_op = min((s.unit for s in self.spans if s.unit >= 0), default=None)
        seen = [(rows, degenerate) for unit, rows, degenerate in self.firing if unit in (-1, first_op)]
        total = sum(rows for rows, _ in seen)
        out["type_reduction.degenerate_row_fraction"] = sum(d for _, d in seen) / total if total else 0.0
        return out

    def write(self, path, extra: dict) -> None:
        spans = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "unit": s.unit, "rows": s.rows}
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({**extra, "spans": spans}, f)
