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
from .elm import ElmModel
from .pipeline import FeatureScaler, HmlModel, PipelineConfig, TrainMetrics
from .sit2 import STAGE_INITIALIZED, STAGE_REFINED, Sit2Model
from .type_reduction import It2RuleBase

MAGIC = b"ELMKITM\x01"
FORMAT_VERSION = 1
# per-layer header fields besides mode and activation, in Autoencoder constructor order after beta
LAYER_FIELDS = ("c", "reconstruction_error", "beta_orthogonality_gap")
# the arrays each head type writes and reads, in its constructor's order,
# besides the scaler's and one per layer; the last one has a column per class
HEAD_ARRAYS = {
    "sit2": ("head.centers", "head.sigma_lower", "head.sigma_upper", "head.consequents"),
    "elm": ("head.input_weights", "head.biases", "head.output_weights"),
    "ridge": ("head.weights",),
}


def _collect_head(head):
    """A head's header metadata, and its arrays under the names ``HEAD_ARRAYS`` lists."""
    if isinstance(head, Sit2Model):
        meta = {"type": "sit2", "stage": head.stage}
        values = (head.rules.centers, head.rules.sigma_lower, head.rules.sigma_upper, head.consequents)
    elif isinstance(head, ElmModel):
        meta = {"type": "elm", "activation": "sigmoid"}
        values = (head.input_weights, head.biases, head.output_weights)
    elif isinstance(head, np.ndarray):
        meta = {"type": "ridge"}
        values = (head,)
    else:
        raise TypeError(f"cannot serialize head of type {type(head).__name__}")
    return meta, dict(zip(HEAD_ARRAYS[meta["type"]], values))


def _contents(model: HmlModel) -> tuple[bytes, list]:
    """The header bytes ``save_model`` writes for ``model``, and the arrays that follow them, in order."""
    head_meta, arrays = _collect_head(model.head)
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
        "head": head_meta,
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
        head_type = header["head"]["type"]
        if head_type not in HEAD_ARRAYS:
            raise ValueError(f"unknown head type {head_type!r}")
        # the scaler's span divides; FeatureScaler.fit writes only positive spans
        if not np.all(arrays["scaler.span"] > 0):
            raise ValueError("array scaler.span has entries that are not positive")
        scaler = FeatureScaler(arrays["scaler.offset"], arrays["scaler.span"])
        layers = []
        for i, meta in enumerate(header["stack_layers"]):
            layers.append(Autoencoder(arrays[f"stack.{i}.beta"], *(float(meta[k]) for k in LAYER_FIELDS)))
            if layers[-1].beta.ndim != 2:
                raise ValueError(f"layer {i} weights have shape {layers[-1].beta.shape}, not two dimensions")
        values = [arrays[name] for name in HEAD_ARRAYS[head_type]]
        if head_type == "sit2":
            *rule_arrays, consequents = values
            if header["head"]["stage"] not in (STAGE_INITIALIZED, STAGE_REFINED):
                raise ValueError(f"unknown sit2 head stage {header['head']['stage']!r}")
            head = Sit2Model(It2RuleBase(*rule_arrays), consequents, header["head"]["stage"])
        else:
            head = ElmModel(*values) if head_type == "elm" else values[0]
        # the header's config renders itself, so only this check ties it to the arrays
        config = PipelineConfig.from_dict(header["config"])
        widths = tuple(ae.beta.shape[0] for ae in layers)
        if config.head != head_type or config.layer_sizes != widths:
            raise ValueError(f"header config (head {config.head!r}, layer_sizes {list(config.layer_sizes)}) "
                             f"does not match the stored {head_type} head and layer widths {list(widths)}")
        n_classes = arrays[HEAD_ARRAYS[head_type][-1]].shape[1]  # an IndexError if that array is not 2-D
        metrics = TrainMetrics(0.0, 0.0, float(header["train_accuracy"]))
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
