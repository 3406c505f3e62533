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


def _restore_layer(i, meta, arrays, path) -> Autoencoder:
    ae = Autoencoder(arrays[f"stack.{i}.beta"], *(meta[k] for k in LAYER_FIELDS))
    if ae.beta.ndim != 2:
        raise ValueError(f"{path}: layer {i} weights have shape {ae.beta.shape}, not two dimensions")
    if meta["mode"] != ae.mode:
        raise ValueError(f"{path}: layer {i} has mode {meta['mode']!r}, but its {ae.beta.shape} weights are {ae.mode}")
    if meta["activation"] != ACTIVATIONS[ae.mode]:
        raise ValueError(f"{path}: layer {i} activation {meta['activation']!r} does not match its {ae.mode} mode")
    return ae


def _array_bytes(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


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


def _restore_head(meta, arrays, path):
    values = [arrays[name] for name in HEAD_ARRAYS[meta["type"]]]
    if meta["type"] == "sit2":
        *rule_arrays, consequents = values
        if meta["stage"] not in (STAGE_INITIALIZED, STAGE_REFINED):
            raise ValueError(f"{path}: unknown sit2 head stage {meta['stage']!r}")
        return Sit2Model(It2RuleBase(*rule_arrays), consequents, meta["stage"])
    if meta["type"] == "elm":
        if meta["activation"] != "sigmoid":
            raise ValueError(f"{path}: elm head activation {meta['activation']!r} is not sigmoid")
        return ElmModel(*values)
    return values[0]


def save_model(model: HmlModel, path) -> None:
    """Serialize atomically, one array at a time."""
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
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = (_array_bytes(np.asarray(arrays[name])) for name in names)
    write_atomic(path, itertools.chain((MAGIC, len(blob).to_bytes(4, "little"), blob), payload))


def _read_arrays(sections, payload: memoryview, path) -> dict:
    """Arrays of a section table that tiles the payload in order from offset 0."""
    if not isinstance(sections, list):
        raise ValueError(f"{path}: header has no array table")
    arrays = {}
    end = 0
    for section in sections:
        if not isinstance(section, dict):
            raise ValueError(f"{path}: array section {section!r} is not a JSON object")
        name, shape = section.get("name"), section.get("shape")
        # type(d) is int: JSON true/false would pass isinstance(d, int)
        if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
            raise ValueError(f"{path}: array {name!r} has a malformed shape {shape!r}")
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"{path}: array name {name!r} is missing or repeated")
        nbytes = 8 * math.prod(shape)
        if section.get("offset") != end or section.get("nbytes") != nbytes:
            raise ValueError(f"{path}: array {name!r} does not follow the previous section")
        raw = payload[end : end + nbytes]
        if len(raw) != nbytes:
            raise ValueError(f"{path}: truncated array payload for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        end += nbytes
    if end != len(payload):
        raise ValueError(f"{path}: {len(payload) - end} bytes follow the last array")
    return arrays


def load_model(path) -> HmlModel:
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic)")
    header_end = 12 + int.from_bytes(data[8:12], "little")
    if len(data) < header_end:
        raise ValueError(f"{path}: truncated header")
    try:
        header = json.loads(data[12:header_end].decode())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError both are
        raise ValueError(f"{path}: header is not valid JSON: {e}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {header.get('format_version')}")
    arrays = _read_arrays(header.get("arrays"), memoryview(data)[header_end:], path)
    try:
        head_type = header["head"]["type"]
        if head_type not in HEAD_ARRAYS:
            raise ValueError(f"{path}: unknown head type {head_type!r}")
        expected = {"scaler.offset", "scaler.span", *HEAD_ARRAYS[head_type]}
        expected.update(f"stack.{i}.beta" for i in range(len(header["stack_layers"])))
        unread = sorted(set(arrays) - expected)
        if unread:
            raise ValueError(f"{path}: arrays {unread} are not read by a {head_type} model")
        scaler = FeatureScaler(arrays["scaler.offset"], arrays["scaler.span"])
        layers = tuple(_restore_layer(i, meta, arrays, path) for i, meta in enumerate(header["stack_layers"]))
        head = _restore_head(header["head"], arrays, path)
        config = PipelineConfig.from_dict(header["config"])
        widths = tuple(ae.beta.shape[0] for ae in layers)
        if config.head != head_type or config.layer_sizes != widths:
            raise ValueError(f"{path}: header config (head {config.head!r}, layer_sizes {list(config.layer_sizes)}) "
                             f"does not match the stored {head_type} head and layer widths {list(widths)}")
        n_classes, outputs = header["n_classes"], arrays[HEAD_ARRAYS[head_type][-1]]
        if type(n_classes) is not int or outputs.ndim != 2 or outputs.shape[1] != n_classes:
            raise ValueError(f"{path}: header n_classes {n_classes!r} does not match the {head_type} head's outputs")
        metrics = TrainMetrics(0.0, 0.0, header["train_accuracy"])
        return HmlModel(scaler, layers, head, config, n_classes, metrics)
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed model header ({type(e).__name__}: {e})") from None
