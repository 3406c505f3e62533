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

from .autoencoder import ACTIVATIONS, Autoencoder
from .data import write_atomic
from .pipeline import HEADS, FeatureScaler, HmlModel, PipelineConfig, TrainMetrics

MAGIC = b"ELMKITM\x01"
FORMAT_VERSION = 1
# per-layer header fields besides mode and activation, in Autoencoder constructor order after beta
LAYER_FIELDS = ("c", "reconstruction_error", "beta_orthogonality_gap")


def _contents(model: HmlModel) -> tuple[bytes, list]:
    """The header bytes ``save_model`` writes for ``model``, and the arrays that follow them, in order."""
    kind = HEADS[model.config.head]
    head_meta, head_arrays = kind.store(model.head)
    arrays = dict(zip(kind.arrays, head_arrays))
    arrays["scaler.offset"] = model.scaler.offset
    arrays["scaler.span"] = model.scaler.span
    layer_meta = []
    for i, ae in enumerate(model.stack):
        arrays[f"stack.{i}.beta"] = ae.beta
        fields = {k: getattr(ae, k) for k in LAYER_FIELDS}
        layer_meta.append({"activation": ACTIVATIONS[ae.mode], "mode": ae.mode, **fields})
    names = sorted(arrays)
    sections = []
    offset = 0
    for name in names:
        a = np.asarray(arrays[name], dtype=np.float64)
        nbytes = a.size * 8
        sections.append(
            {"name": name, "shape": list(a.shape), "offset": offset, "nbytes": nbytes}
        )
        offset += nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "hml",
        "config": model.config.to_dict(),
        "n_classes": model.n_classes,
        "train_accuracy": model.metrics.train_accuracy,
        "head": {"type": model.config.head, **head_meta},
        "stack_layers": layer_meta,
        "arrays": sections,
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


def _number(value, at: str) -> float:
    """``value`` as a float, or a refusal naming header field ``at`` if the JSON value is not a number."""
    if not isinstance(value, (int, float)):
        raise ValueError(f"header field {at} is {json.dumps(value)}, but save_model writes a number")
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
        # the scaler's span divides; FeatureScaler.fit writes only positive spans
        if not np.all(arrays["scaler.span"] > 0):
            raise ValueError("array scaler.span has entries that are not positive")
        scaler = FeatureScaler(arrays["scaler.offset"], arrays["scaler.span"])
        layers = []
        for i, meta in enumerate(header["stack_layers"]):
            fields = (_number(meta[k], f"stack_layers[{i}].{k}") for k in LAYER_FIELDS)
            layers.append(Autoencoder(arrays[f"stack.{i}.beta"], *fields))
            if layers[-1].beta.ndim != 2:
                raise ValueError(f"layer {i} weights have shape {layers[-1].beta.shape}, not two dimensions")
        # the stored head type and layer widths make the config, so the comparison ties the header's to them
        widths = [ae.beta.shape[0] for ae in layers]
        config = PipelineConfig.from_dict({**header["config"], "head": header["head"]["type"], "layer_sizes": widths})
        kind = HEADS[config.head]
        head = kind.rebuild(header["head"], *(arrays[name] for name in kind.arrays))
        n_classes = arrays[kind.arrays[-1]].shape[1]  # an IndexError if that array is not 2-D
        metrics = TrainMetrics(0.0, 0.0, _number(header["train_accuracy"], "train_accuracy"))
        model = HmlModel(scaler, tuple(layers), head, config, n_classes, metrics)
        written = _contents(model)[0]
        if written != blob:
            was, wants = _leaves(header), _leaves(json.loads(written))
            where = next((p for p in {**wants, **was} if was.get(p) != wants.get(p)), None)
            raise ValueError(f"header field {where} is {was.get(where, 'absent')}, but save_model writes "
                             f"{wants.get(where, 'absent')} for the model this file holds" if where else
                             "header is not spaced, ordered or formatted as save_model writes it")
        return model
    except (KeyError, TypeError, IndexError, OverflowError) as e:
        raise ValueError(f"{path}: malformed model header ({type(e).__name__}: {e})") from None
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
