"""Versioned binary model container: JSON header plus raw array sections.

Layout: 8-byte magic ``ELMKITM\\x01``, a little-endian uint32 header
length, the UTF-8 JSON header, then the concatenated float64 array
payloads in the order the header lists them.  Values that determine the
bytes (key order, dtype endianness) are pinned so that identical models
serialize identically; nothing time- or host-dependent is written.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

from .autoencoder import Autoencoder
from .data import write_atomic
from .pipeline import HEADS, FeatureScaler, HmlModel, PipelineConfig, TrainMetrics

MAGIC = b"ELMKITM\x01"
FORMAT_VERSION = 3


def _contents(model: HmlModel) -> tuple[bytes, list]:
    """The header bytes ``save_model`` writes for ``model``, and the arrays that follow them, in order."""
    kind = HEADS[model.config.head]
    arrays = dict(zip(kind.arrays, kind.store(model.head)))
    arrays["scaler.offset"] = model.scaler.offset
    arrays["scaler.span"] = model.scaler.span
    for i, ae in enumerate(model.stack):
        arrays[f"stack.{i}.beta"] = ae.beta
    names = sorted(arrays)
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_dict(),
        "train_accuracy": model.metrics.train_accuracy,
        "stack_layers": [{"reconstruction_error": ae.reconstruction_error} for ae in model.stack],
        "arrays": [{"name": name, "shape": list(np.shape(arrays[name]))} for name in names],
    }
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode(), [arrays[name] for name in names]


def save_model(model: HmlModel, path) -> None:
    """Serialize atomically, one array at a time."""
    blob, arrays = _contents(model)
    payload = (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    write_atomic(path, itertools.chain((MAGIC, len(blob).to_bytes(4, "little"), blob), payload))


def _read_arrays(sections, payload: memoryview) -> dict:
    """Finite arrays of a section table, read one after another from the payload's start."""
    arrays = {}
    end = 0
    for section in sections:
        name, shape = section["name"], section["shape"]
        # type(d) is int: JSON true/false would pass isinstance(d, int)
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"array {name!r} has a malformed shape {shape!r}")
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"array name {name!r} is missing or repeated")
        nbytes = 8 * math.prod(shape)
        raw = payload[end : end + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"truncated array payload for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if not np.all(np.isfinite(arrays[name])):
            raise ValueError(f"array {name} holds NaN or Inf")
        end += nbytes
    if end != len(payload):
        raise ValueError(f"{len(payload) - end} bytes follow the last array")
    return arrays


def _leaves(value, at="") -> dict:
    """The JSON text of each leaf of a parsed header, by path, in the header's order."""
    if isinstance(value, dict) and value:
        items = [(f"{at}.{k}" if at else k, v) for k, v in value.items()]
    elif isinstance(value, list) and value:
        items = [(f"{at}[{i}]", v) for i, v in enumerate(value)]
    else:
        return {at: json.dumps(value)}
    return {path: text for where, v in items for path, text in _leaves(v, where).items()}


def _number(value, at: str, hi: float = math.inf) -> float:
    """``value`` as a float, or a refusal naming header field ``at`` unless it is a finite JSON number in [0, hi]."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and 0 <= value <= hi):
        raise ValueError(f"header field {at} is {json.dumps(value)}, but save_model writes a finite number in [0, {hi}]")
    return float(value)


def load_model(path) -> HmlModel:
    """The model a file holds, if its arrays are finite and its header is the one ``save_model`` writes for it."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        if data[:8] != MAGIC:
            raise ValueError("not a model file (bad magic)")
        header_end = 12 + int.from_bytes(data[8:12], "little")
        blob = data[12:header_end]
        try:
            header = json.loads(blob.decode())
        except ValueError as e:  # JSONDecodeError and UnicodeDecodeError both are
            raise ValueError(f"header is not valid JSON: {e}") from None
        if header["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {header['format_version']}")
        arrays = _read_arrays(header["arrays"], memoryview(data)[header_end:])
        offset, span = arrays["scaler.offset"], arrays["scaler.span"]
        if offset.ndim != 1 or span.shape != offset.shape:
            raise ValueError(f"scaler arrays have shapes {offset.shape} and {span.shape}, not one length")
        # the scaler's span divides; FeatureScaler.fit writes only positive spans
        if not np.all(span > 0):
            raise ValueError("array scaler.span has entries that are not positive")
        # the arrays give the head type, its size and the layer widths, so the comparison ties the header's to them
        head_type = next((h for h, k in HEADS.items() if set(k.arrays) <= arrays.keys()), None)
        if head_type is None:
            raise ValueError(f"no head's arrays among {sorted(arrays)}")
        kind = HEADS[head_type]
        head = kind.rebuild(*(arrays[name] for name in kind.arrays))
        last = arrays[kind.arrays[-1]]
        if last.ndim != 2:
            raise ValueError(f"array {kind.arrays[-1]} has shape {last.shape}, not one column per class")
        betas = [arrays[f"stack.{i}.beta"] for i in range(len(header["stack_layers"]))]
        stored = {**header["config"], "head": head_type, "layer_sizes": [beta.shape[0] for beta in betas]}
        config = PipelineConfig.from_dict({**stored, "head_size": kind.size(head, stored.get("head_size"))})
        layers, width = [], offset.size
        for i, (beta, meta) in enumerate(zip(betas, header["stack_layers"])):
            if beta.ndim != 2 or beta.shape[1] != width:
                raise ValueError(f"layer {i} weights have shape {beta.shape}, not a matrix of {width} columns")
            width = beta.shape[0]
            error = _number(meta["reconstruction_error"], f"stack_layers[{i}].reconstruction_error")
            layers.append(Autoencoder(beta, error))
        if kind.n_inputs(head) != width:
            raise ValueError(f"the {head_type} head scores {kind.n_inputs(head)} features, but {width} reach it")
        metrics = TrainMetrics(0.0, 0.0, _number(header["train_accuracy"], "train_accuracy", 1.0))
        model = HmlModel(FeatureScaler(offset, span), tuple(layers), head, config, metrics)
        written = _contents(model)[0]
        if written != blob:
            was, wants = _leaves(header), _leaves(json.loads(written))
            where = next((p for p in {**was, **wants} if was.get(p) != wants.get(p)), None)
            raise ValueError(f"header field {where} is {was.get(where, 'absent')}, but save_model writes "
                             f"{wants.get(where, 'absent')} for the model this file holds" if where else
                             "header is not spaced, ordered or formatted as save_model writes it")
        return model
    except (KeyError, TypeError, IndexError, OverflowError) as e:
        raise ValueError(f"{path}: malformed model header ({type(e).__name__}: {e})") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
