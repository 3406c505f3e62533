import copy
import functools
import itertools
import json
import math
import operator
import os
import pathlib
import platform
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elmkit
from elmkit.cli import main
from elmkit.model_io import MAGIC, load_model, save_model
from elmkit.numerics import Rng
from elmkit.pipeline import HEADS, PipelineConfig, hml_predict, hml_train

from conftest import DIGITS_CONFIG


def blob_data(n_per_class=25, seed=900):
    gen = Rng(seed).generator()
    centers = gen.uniform(0, 5, (3, 4))
    x = np.vstack([gen.normal(c, 0.4, (n_per_class, 4)) for c in centers])
    labels = np.repeat(np.arange(3), n_per_class)
    return x, labels


@pytest.mark.parametrize(
    "layers,head,head_size",
    [
        pytest.param((4, 3), "sit2", 5, id="sit2-5"),
        pytest.param((4, 3), "ridge", 1, id="ridge-1"),
        pytest.param((4, 3), "elm", 9, id="elm-9"),
        pytest.param((), "elm", 9, id="stack-free-elm-9"),
    ],
)
def test_round_trip_preserves_predictions(tmp_path, layers, head, head_size):
    x, labels = blob_data()
    cfg = PipelineConfig(layers, (10.0,) * len(layers) + (1e4,), head=head, head_size=head_size, seed=6)
    model = hml_train(x, labels, cfg)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    np.testing.assert_array_equal(hml_predict(model, x), hml_predict(back, x))
    assert back.config == model.config
    assert back.metrics.train_accuracy == model.metrics.train_accuracy


def test_same_seed_byte_identical_files(tmp_path):
    x, labels = blob_data()
    cfg = PipelineConfig((4,), (10.0, 1e4), head="sit2", head_size=4, seed=11)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(hml_train(x, labels, cfg), p1)
    save_model(hml_train(x, labels, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_different_seed_differs(tmp_path):
    x, labels = blob_data()
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(hml_train(x, labels, PipelineConfig((4,), (10.0, 1e4), seed=1, head_size=4)), p1)
    save_model(hml_train(x, labels, PipelineConfig((4,), (10.0, 1e4), seed=2, head_size=4)), p2)
    assert p1.read_bytes() != p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAMODELxxxx")
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


def test_rejects_wrong_version(tmp_path):
    x, labels = blob_data(10)
    cfg = PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=0)
    path = tmp_path / "model.bin"
    save_model(hml_train(x, labels, cfg), path)
    raw = bytearray(path.read_bytes())
    # bump the version digit inside the JSON header
    idx = raw.find(b'"format_version":3')
    raw[idx + len(b'"format_version":') : idx + len(b'"format_version":') + 1] = b"9"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported model format"):
        load_model(path)


def test_no_stray_temp_files(tmp_path):
    x, labels = blob_data(10)
    cfg = PipelineConfig((4,), (10.0, 1e4), head="ridge", seed=0)
    save_model(hml_train(x, labels, cfg), tmp_path / "model.bin")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.bin"]


def split_file(raw: bytes):
    """(header dict, payload bytes) of a saved model."""
    n = int.from_bytes(raw[8:12], "little")
    return json.loads(raw[12 : 12 + n]), raw[12 + n :]


def join_file(header, payload: bytes) -> bytes:
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + len(blob).to_bytes(4, "little") + blob + payload


def _edit_header(edit):
    """Corruption that applies ``edit`` to the header in place."""

    def corrupt(raw):
        header, payload = split_file(raw)
        edit(header)
        return join_file(header, payload)

    return corrupt


def _edit_sections(edit):
    """Corruption that applies ``edit`` to the header's section list in place."""
    return _edit_header(lambda header: edit(header["arrays"]))


def _set(i, key, value):
    """Corruption that sets field ``key`` of section i to ``value(sections)``."""
    return _edit_sections(lambda sections: sections[i].__setitem__(key, value(sections)))


def byte_span(sections, name):
    """(start, stop) of array ``name`` in the payload, which the sections fill one after another in order."""
    stops = list(itertools.accumulate(8 * math.prod(s["shape"]) for s in sections))
    i = next(i for i, s in enumerate(sections) if s["name"] == name)
    return stops[i] - 8 * math.prod(sections[i]["shape"]), stops[i]


def _drop_arrays(prefix):
    """Corruption that removes each array whose name starts with ``prefix``, and its bytes."""

    def corrupt(raw):
        header, payload = split_file(raw)
        kept = [s for s in header["arrays"] if not s["name"].startswith(prefix)]
        payload = b"".join(payload[slice(*byte_span(header["arrays"], s["name"]))] for s in kept)
        return join_file({**header, "arrays": kept}, payload)

    return corrupt


def _add_unread_array(raw):
    header, payload = split_file(raw)
    header["arrays"].append({"name": "head.extra", "shape": [1]})
    return join_file(header, payload + bytes(8))


def _gap_before_section(raw):
    """Eight zero bytes between the first two sections' bytes."""
    header, payload = split_file(raw)
    start = byte_span(header["arrays"], header["arrays"][1]["name"])[0]
    return join_file(header, payload[:start] + bytes(8) + payload[start:])


def _set_layer(i, key, value):
    return _edit_header(lambda header: header["stack_layers"][i].__setitem__(key, value))


def _on_model(config, corrupt):
    """Corruption that applies ``corrupt`` to the file of a model trained with ``config`` on the manifest's rows."""

    def other(raw):
        with tempfile.TemporaryDirectory() as d:
            path = pathlib.Path(d) / "model.bin"
            save_model(hml_train(*blob_data(10), config), path)
            return corrupt(path.read_bytes())

    return other


def _set_shape(name, shape):
    """Corruption that gives array ``name`` another shape of the same size: the same payload."""
    return _edit_sections(lambda sections: next(s for s in sections if s["name"] == name).__setitem__("shape", shape))


def _replace_array(name, edit):
    """Corruption that replaces array ``name`` by ``edit(array)``, in the section table and in the payload."""

    def corrupt(raw):
        header, payload = split_file(raw)
        section = next(s for s in header["arrays"] if s["name"] == name)
        start, stop = byte_span(header["arrays"], name)
        array = edit(np.frombuffer(payload[start:stop], dtype="<f8").reshape(section["shape"]))
        section["shape"] = list(array.shape)
        return join_file(header, payload[:start] + array.astype("<f8").tobytes() + payload[stop:])

    return corrupt


def _bad_header(blob: bytes):
    """Corruption that replaces the whole file with a header of raw bytes ``blob``."""
    return lambda raw: MAGIC + len(blob).to_bytes(4, "little") + blob


CORRUPTIONS = {
    "magic-only": lambda raw: MAGIC,
    "short-length": lambda raw: raw[:10],
    "non-object-header": lambda raw: join_file([1, 2], b""),
    "no-array-table": lambda raw: join_file({**split_file(raw)[0], "arrays": 3}, split_file(raw)[1]),
    # format 1 wrote each section's offset and byte count; the sections' order and shapes give them now
    "overlapping-offset": _set(1, "offset", lambda sections: 0),
    "gap-before-section": _gap_before_section,
    "sections-out-of-order": _edit_sections(lambda sections: sections.reverse()),
    "nbytes-not-shape": _set(0, "nbytes", lambda sections: 8 * math.prod(sections[0]["shape"]) + 8),
    "negative-dimension": _set(0, "shape", lambda sections: [-1, 0]),
    "non-integer-dimension": _set(0, "shape", lambda sections: [1.5]),
    "shape-not-a-list": _set(0, "shape", lambda sections: 4),
    "section-not-an-object": _edit_sections(lambda sections: sections.__setitem__(0, 7)),
    "unnamed-section": _set(0, "name", lambda sections: None),
    "repeated-name": _set(1, "name", lambda sections: sections[0]["name"]),
    "trailing-bytes": lambda raw: raw + bytes(8),
    "missing-array": _drop_arrays("scaler.span"),
    "missing-head": _drop_arrays("head."),
    "header-not-json": _bad_header(b"{x}"),
    "header-not-utf8": _bad_header(b'{"a":"\xff"}'),
    "unread-array": _add_unread_array,
    # the saved_model stack is an equal layer, then a compressed one; format 1 wrote each layer's mode
    # and activation, which its weights' shape gives now
    "unknown-layer-mode": _set_layer(1, "mode", "bogus"),
    "compressed-layer-called-equal": _edit_header(
        lambda header: header["stack_layers"][1].update(mode="equal", activation="linear")
    ),
    "one-dimensional-layer-weights": _set_shape("stack.1.beta", [12]),
    "compressed-layer-tanh": _set_layer(1, "activation", "tanh"),
    "compressed-layer-linear": _set_layer(1, "activation", "linear"),
    "equal-layer-sigmoid": _set_layer(0, "activation", "sigmoid"),
    # a one-node elm model whose input weights are stored as a vector
    "elm-input-weights-not-a-matrix": _on_model(PipelineConfig((3,), (10.0, 1e4), head="elm", head_size=1),
                                                _set_shape("head.input_weights", [3])),
    "ridge-weights-not-a-matrix": _on_model(PipelineConfig((3,), (10.0, 1e4), head="ridge"),
                                            _set_shape("head.weights", [12])),
    # arrays whose widths do not chain: each loaded, and eval then blamed the data or failed in numpy
    "extra-scaler-column": lambda raw: _replace_array("scaler.span", lambda a: np.append(a, 1.0))(
        _replace_array("scaler.offset", lambda a: np.append(a, 0.0))(raw)),
    "wider-first-layer-input": _replace_array("stack.0.beta", lambda a: np.hstack([a, a[:, :1]])),
    "extra-sit2-consequent-rows": _replace_array("head.consequents", lambda a: np.vstack([a, a[:1]])),
    "extra-ridge-weight-row": _on_model(PipelineConfig((3,), (10.0, 1e4), head="ridge"),
                                        _replace_array("head.weights", lambda a: np.vstack([a, a[:1]]))),
    # format 2 wrote a sit2 head's stage, which no code read
    "unknown-head-stage": _edit_header(lambda header: header.__setitem__("head", {"stage": "bogus"})),
    # the saved_model head scores 3 classes; format 1 wrote that count, which the head's arrays give now
    "n-classes-not-head-width": _edit_header(lambda header: header.__setitem__("n_classes", 7)),
    # True == 1, but never the version save_model writes
    "boolean-format-version": _edit_header(lambda header: header.__setitem__("format_version", True)),
    # the header floats no score reads: a layer's reconstruction error is finite and not negative,
    # train_accuracy is in [0, 1]
    "layer-error-nan": _set_layer(0, "reconstruction_error", math.nan),
    "layer-error-negative": _set_layer(1, "reconstruction_error", -0.5),
    # format 2 wrote each layer's orthogonality gap, which no code read
    "layer-gap-infinite": _set_layer(1, "beta_orthogonality_gap", math.inf),
    "layer-gap-negative": _set_layer(0, "beta_orthogonality_gap", -1e-17),
    "train-accuracy-above-one": _edit_header(lambda header: header.__setitem__("train_accuracy", 1.5)),
    "train-accuracy-negative": _edit_header(lambda header: header.__setitem__("train_accuracy", -0.25)),
    "train-accuracy-minus-infinity": _edit_header(lambda header: header.__setitem__("train_accuracy", -math.inf)),
    # true == 1, so the section still tiles the payload
    "boolean-dimension": _edit_sections(
        lambda sections: next(s for s in sections if s["name"] == "scaler.offset")["shape"].append(True)
    ),
}


def save_with_manifest(tmp_path, cfg):
    """Path of a model trained on ``blob_data(10)``, saved beside a CSV manifest of those rows."""
    x, labels = blob_data(10)
    path = tmp_path / "model.bin"
    save_model(hml_train(x, labels, cfg), path)
    lines = ["a,b,c,d,label"] + [",".join(map(str, row)) + f",{lbl}" for row, lbl in zip(x, labels)]
    (tmp_path / "rows.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"type": "csv", "path": "rows.csv"}))
    return path


@pytest.fixture
def saved_model(tmp_path):
    cfg = PipelineConfig((4, 3), (10.0, 10.0, 1e4), head="sit2", head_size=4, seed=0)
    return save_with_manifest(tmp_path, cfg)


def eval_args(path):
    manifest = path.parent / "manifest.json"
    return ["eval", "--model", str(path), "--data", str(manifest), "--out", str(path.parent / "eval")]


def test_intact_file_loads_and_evaluates(saved_model):
    raw = saved_model.read_bytes()
    assert join_file(*split_file(raw)) == raw  # the helpers rebuild the writer's bytes
    assert load_model(saved_model).head.consequents.shape[1] == 3
    assert main(eval_args(saved_model)) == 0


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_file_is_a_value_error_and_eval_exits_2(saved_model, name, capsys):
    saved_model.write_bytes(CORRUPTIONS[name](saved_model.read_bytes()))
    with pytest.raises(ValueError):
        load_model(saved_model)
    assert main(eval_args(saved_model)) == 2
    assert str(saved_model) in capsys.readouterr().err


# format 1 wrote the elm head's activation, which is always the sigmoid; format 3 writes no head object
@pytest.mark.parametrize("activation", ["tanh", "linear"])
def test_elm_head_with_another_activation_is_refused(tmp_path, activation, capsys):
    path = save_with_manifest(tmp_path, PipelineConfig((), (1e4,), head="elm", head_size=5, seed=0))
    header, payload = split_file(path.read_bytes())
    assert "head" not in header
    header["head"] = {"activation": activation}
    path.write_bytes(join_file(header, payload))
    message = f'header field head.activation is "{activation}", but save_model writes absent'
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert main(eval_args(path)) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "head,config_edit,message",
    [
        pytest.param("ridge", {"head": "sit2", "head_size": 7},
                     'header field config.head is "sit2", but save_model writes "ridge"', id="head-type"),
        pytest.param("ridge", {"layer_sizes": [99]},
                     r"header field config.layer_sizes\[0\] is 99, but save_model writes 3", id="layer-width"),
        # the stored widths replace the header's, and one layer takes two ridge constants
        pytest.param("ridge", {"layer_sizes": [99, 99], "Cs": [10.0, 10.0, 1e4]},
                     r"need 2 ridge constants \(one per layer plus the head\), got 3", id="layer-count"),
        # the stored head's rule count or hidden width replaces the header's head_size; ridge has no size
        pytest.param("sit2", {"head_size": 7}, "header field config.head_size is 7, but save_model writes 4 ",
                     id="sit2-head-size"),
        pytest.param("elm", {"head_size": 7}, "header field config.head_size is 7, but save_model writes 5 ",
                     id="elm-head-size"),
    ],
)
def test_header_config_that_disagrees_with_the_stored_model_is_refused(tmp_path, head, config_edit, message, capsys):
    cfg = PipelineConfig((3,), (10.0, 1e4), head=head, head_size={"ridge": 40, "sit2": 4, "elm": 5}[head], seed=0)
    path = save_with_manifest(tmp_path, cfg)
    header, payload = split_file(path.read_bytes())
    header["config"].update(config_edit)
    path.write_bytes(join_file(header, payload))
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert main(eval_args(path)) == 2
    assert str(path) in capsys.readouterr().err


def test_truncated_file_is_a_value_error(saved_model):
    raw = saved_model.read_bytes()
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    lengths = {0, 4, 8, 11, 12, 40, header_end - 1, header_end, header_end + 5, len(raw) - 8, len(raw) - 1}
    lengths |= set(range(header_end, len(raw), max(1, (len(raw) - header_end) // 17)))
    for n in sorted(lengths):
        saved_model.write_bytes(raw[:n])
        with pytest.raises(ValueError):
            load_model(saved_model)


@pytest.mark.parametrize(
    "name,message",
    [
        ("header-not-json", "header is not valid JSON"),
        ("header-not-utf8", "header is not valid JSON"),
        ("unread-array", r'header field arrays\[8\]\.name is "head\.extra", but save_model writes absent'),
        ("boolean-dimension", "malformed shape"),
        ("unknown-layer-mode", r'header field stack_layers\[1\]\.mode is "bogus", but save_model writes absent'),
        # the file's fields are compared in its key order, so the layer's activation differs first
        ("compressed-layer-called-equal",
         r'header field stack_layers\[1\]\.activation is "linear", but save_model writes absent'),
        ("one-dimensional-layer-weights", r"layer 1 weights have shape \(12,\), not a matrix of 4 columns"),
        ("compressed-layer-tanh", r'header field stack_layers\[1\]\.activation is "tanh", but save_model writes absent'),
        ("equal-layer-sigmoid", r'header field stack_layers\[0\]\.activation is "sigmoid", but save_model writes absent'),
        ("unknown-head-stage", 'header field head.stage is "bogus", but save_model writes absent'),
        ("elm-input-weights-not-a-matrix", r"elm weights \(3,\), biases \(1,\) and output weights \(1, 3\) do not chain"),
        ("ridge-weights-not-a-matrix", r"array head.weights has shape \(12,\), not one column per class"),
        ("extra-scaler-column", r"layer 0 weights have shape \(4, 4\), not a matrix of 5 columns"),
        ("wider-first-layer-input", r"layer 0 weights have shape \(4, 5\), not a matrix of 4 columns"),
        ("extra-sit2-consequent-rows", r"sit2 consequents \(17, 3\) do not chain with 4 rules on 3 inputs"),
        ("extra-ridge-weight-row", "the ridge head scores 4 features, but 3 reach it"),
        ("n-classes-not-head-width", "header field n_classes is 7, but save_model writes absent"),
        ("overlapping-offset", r"header field arrays\[1\]\.offset is 0, but save_model writes absent"),
        ("nbytes-not-shape", r"header field arrays\[0\]\.nbytes is \d+, but save_model writes absent"),
        ("gap-before-section", "8 bytes follow the last array"),
        ("missing-head", r"no head's arrays among \['scaler.offset', 'scaler.span', 'stack.0.beta', 'stack.1.beta'\]"),
        ("boolean-format-version", "unsupported model format version True"),
        ("layer-error-nan", r"header field stack_layers\[0\]\.reconstruction_error is NaN, but save_model writes a finite"),
        ("layer-error-negative", r"header field stack_layers\[1\]\.reconstruction_error is -0\.5, "),
        ("layer-gap-infinite", r"header field stack_layers\[1\]\.beta_orthogonality_gap is Infinity, "),
        ("layer-gap-negative", r"header field stack_layers\[0\]\.beta_orthogonality_gap is -1e-17, "),
        ("train-accuracy-above-one", r"header field train_accuracy is 1\.5, but save_model writes a finite number in \[0, 1"),
        ("train-accuracy-negative", r"header field train_accuracy is -0\.25, "),
        ("train-accuracy-minus-infinity", "header field train_accuracy is -Infinity, "),
    ],
)
def test_header_faults_name_the_file_and_the_fault(saved_model, name, message):
    saved_model.write_bytes(CORRUPTIONS[name](saved_model.read_bytes()))
    with pytest.raises(ValueError, match=message) as info:
        load_model(saved_model)
    assert str(info.value).startswith(f"{saved_model}: ")


# the values the header mutation test sets each leaf to; DELETE removes the leaf instead
LEAF_VALUES = [None, -1, 0, 1.5, 1e308, "x", [], {}, True, math.nan, math.inf]
DELETE = object()

MUTATED_MODELS = {
    # 4 inputs, then a compressed (3), a sparse (5) and an equal (5) layer
    "sit2": PipelineConfig((3, 5, 5), (10.0, 10.0, 10.0, 1e4), head="sit2", head_size=4, seed=0),
    "elm": PipelineConfig((3,), (10.0, 1e4), head="elm", head_size=5, seed=0),
    "ridge": PipelineConfig((5,), (10.0, 1e4), head="ridge", seed=0),
}
# the header floats the loader reads as numbers: a refused mutation of one names the field and its value
FLOAT_FIELDS = ("reconstruction_error", "train_accuracy")


def test_mutated_models_cover_every_head():
    # so a new head gets the header-mutation and non-finite-array tests below
    assert set(MUTATED_MODELS) == set(HEADS)


def leaf_paths(value, path=()):
    """Key and index paths of every leaf of a parsed header; an empty container is a leaf."""
    if isinstance(value, dict) and value:
        return [p for k, v in value.items() for p in leaf_paths(v, path + (k,))]
    if isinstance(value, list) and value:
        return [p for i, v in enumerate(value) for p in leaf_paths(v, path + (i,))]
    return [path]


def field_name(path):
    """A leaf path as the loader names it, e.g. ``stack_layers[1].mode``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def with_leaf(header, path, value):
    """A copy of ``header`` with the leaf at ``path`` set to ``value``, or deleted for DELETE; missing objects are added."""
    header = copy.deepcopy(header)
    *parents, last = path
    node = functools.reduce(lambda node, key: node.setdefault(key, {}) if isinstance(node, dict) else node[key],
                            parents, header)
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return header


def assert_refused(path, message, capsys):
    """``load_model`` raises a ValueError matching ``message`` and naming the file, and ``eval`` exits 2."""
    with pytest.raises(ValueError, match=message) as info:
        load_model(path)
    assert str(info.value).startswith(f"{path}: ")
    assert main(eval_args(path)) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("head", sorted(MUTATED_MODELS))
def test_each_header_leaf_mutation_is_refused_or_scores_as_the_intact_file(tmp_path, head, capsys):
    path = save_with_manifest(tmp_path, MUTATED_MODELS[head])
    x, _ = blob_data(10)
    intact = hml_predict(load_model(path), x).tobytes()
    header, payload = split_file(path.read_bytes())
    for leaf in leaf_paths(header):
        written = functools.reduce(operator.getitem, leaf, header)
        for value in LEAF_VALUES + [DELETE]:
            path.write_bytes(join_file(with_leaf(header, leaf, value), payload))
            try:
                model = load_model(path)
            except ValueError:
                named = leaf[-1] in FLOAT_FIELDS and value is not DELETE
                message = f"header field {field_name(leaf)} is {json.dumps(value)}" if named else None
                assert_refused(path, message and re.escape(message), capsys)
                continue
            # only a value of the written JSON type may load, and then it must not change a score
            assert type(value) is type(written), (leaf, value)
            assert hml_predict(model, x).tobytes() == intact, (leaf, value)


def format_2_header(header, model):
    """The header format version 2 wrote for ``model``, whose version-3 header is ``header``."""
    old = copy.deepcopy(header)
    old.update(format_version=2, head={"stage": "refined"} if model.config.head == "sit2" else {})
    for layer, ae in zip(old["stack_layers"], model.stack):
        layer["beta_orthogonality_gap"] = float(np.abs(ae.beta.T @ ae.beta - np.eye(ae.n_inputs)).max())
    return old


def format_1_header(header, model):
    """The header format version 1 wrote for ``model``, whose version-3 header is ``header``."""
    old = format_2_header(header, model)
    n_classes = HEADS[model.config.head].store(model.head)[-1].shape[1]
    old.update(format_version=1, kind="hml", n_classes=n_classes)
    old["head"]["type"] = model.config.head
    if model.config.head == "elm":
        old["head"]["activation"] = "sigmoid"
    for layer, ae, c in zip(old["stack_layers"], model.stack, model.config.cs):
        layer.update(mode=ae.mode, activation="linear" if ae.mode == "equal" else "sigmoid", c=c)
    for section in old["arrays"]:
        start, stop = byte_span(old["arrays"], section["name"])
        section.update(offset=start, nbytes=stop - start)
    return old


def test_a_format_1_file_is_refused_by_its_version(saved_model, capsys):
    header, payload = split_file(saved_model.read_bytes())
    saved_model.write_bytes(join_file(format_1_header(header, load_model(saved_model)), payload))
    assert_refused(saved_model, "unsupported model format version 1$", capsys)


def test_a_format_2_file_is_refused_by_its_version(saved_model, capsys):
    header, payload = split_file(saved_model.read_bytes())
    saved_model.write_bytes(join_file(format_2_header(header, load_model(saved_model)), payload))
    assert_refused(saved_model, "unsupported model format version 2$", capsys)


def assert_each_dropped_field_is_refused_by_name(path, old, newer, capsys):
    """Each leaf of header ``old`` that header ``newer`` lacks, put into the file's own header, is refused by name."""
    header, payload = split_file(path.read_bytes())
    dropped = [leaf for leaf in leaf_paths(old) if leaf not in leaf_paths(newer)]
    for leaf in dropped:
        value = functools.reduce(operator.getitem, leaf, old)
        path.write_bytes(join_file(with_leaf(header, leaf, value), payload))
        message = f"header field {field_name(leaf)} is {json.dumps(value)}, but save_model writes absent"
        assert_refused(path, re.escape(message), capsys)
    return {leaf[-1] for leaf in dropped}


@pytest.mark.parametrize("head", sorted(MUTATED_MODELS))
def test_each_field_format_1_wrote_and_format_2_derives_is_refused_by_name(tmp_path, head, capsys):
    path = save_with_manifest(tmp_path, MUTATED_MODELS[head])
    header, model = split_file(path.read_bytes())[0], load_model(path)
    dropped = assert_each_dropped_field_is_refused_by_name(
        path, format_1_header(header, model), format_2_header(header, model), capsys
    )
    # the head's type and class count, a layer's kind and c, each array's place in the payload, and the elm
    # head's activation: each is given by the config or the arrays, or is a constant of the code
    assert dropped == {"kind", "n_classes", "type", "mode", "activation", "c", "offset", "nbytes"}


@pytest.mark.parametrize("head", sorted(MUTATED_MODELS))
def test_each_field_format_2_wrote_and_format_3_drops_is_refused_by_name(tmp_path, head, capsys):
    path = save_with_manifest(tmp_path, MUTATED_MODELS[head])
    header = split_file(path.read_bytes())[0]
    dropped = assert_each_dropped_field_is_refused_by_name(
        path, format_2_header(header, load_model(path)), header, capsys
    )
    # a sit2 head's stage, an empty head object for the other heads, and each layer's orthogonality gap:
    # no code decides on any of them
    assert dropped == {"stage" if head == "sit2" else "head", "beta_orthogonality_gap"}


def with_first_entry(raw, name, value):
    """Model file bytes ``raw`` with the first entry of array ``name`` set to ``value``."""
    header, payload = split_file(raw)
    start = byte_span(header["arrays"], name)[0]
    return join_file(header, payload[:start] + struct.pack("<d", value) + payload[start + 8 :])


@pytest.mark.parametrize("head", sorted(MUTATED_MODELS))
def test_non_finite_arrays_and_non_positive_spans_are_refused(tmp_path, head, capsys):
    path = save_with_manifest(tmp_path, MUTATED_MODELS[head])
    raw = path.read_bytes()
    for name in (s["name"] for s in split_file(raw)[0]["arrays"]):
        for value in (math.nan, math.inf, -math.inf):
            path.write_bytes(with_first_entry(raw, name, value))
            assert_refused(path, re.escape(f"array {name} holds NaN or Inf"), capsys)
    for value in (0.0, -1.0):
        path.write_bytes(with_first_entry(raw, "scaler.span", value))
        assert_refused(path, "array scaler.span has entries that are not positive", capsys)


def test_a_constructor_refusal_at_load_names_the_file(saved_model, capsys):
    saved_model.write_bytes(with_first_entry(saved_model.read_bytes(), "head.sigma_lower", 1e6))
    assert_refused(saved_model, "sigma_lower must not exceed sigma_upper", capsys)


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """(path, bytes, rows) of a small saved (4, 3) sit2 model."""
    x, labels = blob_data(10)
    cfg = PipelineConfig((4, 3), (10.0, 10.0, 1e4), head="sit2", head_size=4, seed=0)
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(hml_train(x, labels, cfg), path)
    return path, path.read_bytes(), x


# bytes that keep a mutated header JSON-like more often than a uniform byte
_JSON_BYTES = st.sampled_from(list(b'0123456789-.eE[]{}",:tfn '))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_mutated_or_truncated_file_loads_or_is_a_value_error(fuzz_model, data):
    path, raw, x = fuzz_model
    header_end = 12 + int.from_bytes(raw[8:12], "little")
    anywhere = st.integers(0, len(raw) - 1)
    in_header = st.integers(12, header_end - 1)
    edits = data.draw(
        st.lists(st.tuples(st.one_of(in_header, anywhere), st.one_of(_JSON_BYTES, st.integers(0, 255))), max_size=4)
    )
    mutated = bytearray(raw)
    for i, b in edits:
        mutated[i] = b
    length = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))))
    path.write_bytes(bytes(mutated[:length]))
    try:
        scores = hml_predict(load_model(path), x)
    except ValueError:
        return
    assert scores.shape == (x.shape[0], 3)


# Model bytes follow the BLAS kernels and numpy's own vector loops, so the digests below hold for one software
# stack, run on OpenBLAS's Haswell kernels on one thread and on numpy's loops for x86-64-v3 (AVX2): both run
# alike on any x86-64 host with AVX2, whatever wider instructions it also has.  A change that keeps model bytes
# passes this test unedited; a change that alters them on purpose re-pins and says so.
PIN_STACK = {"numpy": "2.4.6", "numpy's OpenBLAS": "0.3.31.188.0 DYNAMIC_ARCH", "scipy's OpenBLAS": "0.3.30 DYNAMIC_ARCH"}
PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": "Haswell",
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# per head: the SHA-256 of the saved model file and of its reloaded copy's scores on the held-out rows
PINNED_DIGESTS = {
    "sit2": ("834614d8822bb664ed4e589bdde76b4178eb65a83c381dcbe5420cf5ae682988",
             "c1e2fc00bb2ded47b92e6d00fdfbb6984219473b6d1993898a1ad38c457848d5"),
    "ridge": ("b8e95b84140ea04dc6a2bea89db756e0c10169b7f7fde51b61f2d3f8b94876a8",
              "250aa1f9c591719a8e3bb16425d07745ed10949816849c5e9cbaf3aa4004b0d3"),
    "elm": ("c523962bd4400692b328282587909ea934e5c1a926a81ecb7ac085c2513e0438",
            "23fac9d03de9162412f0eeb9589851fd382ed55ba5f8e429cbf745e3ca72e724"),
}

# trains one model per head on 1000 digits-proxy rows, (64, 64) layers and 20 rules or nodes, scores 200 more
_TRAIN_SAVE_AND_DIGEST = """
import hashlib, importlib.util, json, pathlib, sys
from elmkit.model_io import load_model, save_model
from elmkit.pipeline import PipelineConfig, hml_predict, hml_train

spec = importlib.util.spec_from_file_location("digits_proxy", sys.argv[1])
digits_proxy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digits_proxy)
x, labels = digits_proxy.make_rows(1200, (7, 0))
digests = {}
for head in ("sit2", "ridge", "elm"):
    path = pathlib.Path(sys.argv[2]) / f"{head}.bin"
    config = PipelineConfig((64, 64), (1e-1, 1e4, 1e8), head=head, head_size=20, seed=1)
    save_model(hml_train(x[:1000], labels[:1000], config), path)
    scores = hml_predict(load_model(path), x[1000:])
    digests[head] = [hashlib.sha256(path.read_bytes()).hexdigest(), hashlib.sha256(scores.tobytes()).hexdigest()]
print(json.dumps(digests))
"""


def _openblas(module):
    """The OpenBLAS version ``module`` was built with, marked if that build picks its kernels at run time."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a version with no such report, or a build with no BLAS entry
        return "unknown"
    dynamic = "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    return blas.get("version", "unknown") + (" DYNAMIC_ARCH" if dynamic else "")


def test_model_and_score_bytes_are_pinned(tmp_path):
    import scipy

    if np.__version__ != PIN_STACK["numpy"]:
        pytest.skip(f"the digests are pinned for numpy {PIN_STACK['numpy']}, and this is numpy {np.__version__}")
    stack = {"numpy": np.__version__, "numpy's OpenBLAS": _openblas(np), "scipy's OpenBLAS": _openblas(scipy)}
    if stack != PIN_STACK:
        pytest.skip(f"the digests are pinned for {PIN_STACK}, and this is {stack}")
    from numpy._core._multiarray_umath import __cpu_features__

    if platform.machine().lower() not in ("x86_64", "amd64") or not __cpu_features__.get("X86_V3"):
        pytest.skip(f"Haswell kernels need an x86-64 host with AVX2, and this is {platform.machine()} without them")
    src = os.path.dirname(os.path.dirname(elmkit.__file__))
    env = dict(os.environ, **PIN_ENV, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proxy = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digits_proxy.py"
    run = subprocess.run([sys.executable, "-c", _TRAIN_SAVE_AND_DIGEST, str(proxy), str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    assert {head: tuple(pair) for head, pair in json.loads(run.stdout).items()} == PINNED_DIGESTS


# trains one model per head on 1000 digits-proxy rows, (64, 64) layers and 20 rules or nodes, and prints its
# predicted labels on 200 more
_TRAIN_AND_LABEL = """
import importlib.util, json, sys
from elmkit.elm import predict_labels
from elmkit.pipeline import PipelineConfig, hml_predict, hml_train

spec = importlib.util.spec_from_file_location("digits_proxy", sys.argv[1])
digits_proxy = importlib.util.module_from_spec(spec)
spec.loader.exec_module(digits_proxy)
x, labels = digits_proxy.make_rows(1200, (7, 0))
cs, seed = json.loads(sys.argv[2])
predicted = {}
for head in ("sit2", "ridge", "elm"):
    model = hml_train(x[:1000], labels[:1000], PipelineConfig((64, 64), cs, head=head, head_size=20, seed=seed))
    predicted[head] = predict_labels(hml_predict(model, x[1000:])).tolist()
print(json.dumps(predicted))
"""


@pytest.fixture(scope="module")
def labels_per_coretype():
    """Each head's predicted labels, trained and scored in a fresh interpreter per OpenBLAS kernel."""
    import scipy

    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OPENBLAS_CORETYPE names x86-64 kernels, and this is {platform.machine()}")
    stack = {"numpy's OpenBLAS": _openblas(np), "scipy's OpenBLAS": _openblas(scipy)}
    if not all(version.endswith(" DYNAMIC_ARCH") for version in stack.values()):
        pytest.skip(f"OPENBLAS_CORETYPE picks kernels only in a DYNAMIC_ARCH build, and this is {stack}")
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("X86_V3"):
        pytest.skip("Haswell kernels need an x86-64 host with AVX2, and this one has none")
    src = os.path.dirname(os.path.dirname(elmkit.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    proxy = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digits_proxy.py"
    config = json.dumps([DIGITS_CONFIG.cs, DIGITS_CONFIG.seed])
    predicted = {}
    for coretype in ("Haswell", "Sandybridge", None):
        run_env = env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype)
        run = subprocess.run([sys.executable, "-c", _TRAIN_AND_LABEL, str(proxy), config],
                             env=run_env, capture_output=True, text=True, check=True, timeout=120)
        predicted[coretype or "unset"] = json.loads(run.stdout)
    return predicted


# On an AVX-512 host with numpy 2.4.6, Haswell kernels beside numpy's AVX-512 loops flip 3 of the 200 sit2
# labels against the other two settings, with scores moving by up to 0.37.  With numpy held to AVX2 loops
# they agree, so a host without AVX-512 may pass: the mark is not strict.
SIT2_KERNEL_FLIPS = pytest.mark.xfail(reason="sit2's labels follow the BLAS kernel", strict=False)


@pytest.mark.parametrize("head", [pytest.param("sit2", marks=SIT2_KERNEL_FLIPS), "ridge", "elm"])
def test_predicted_labels_agree_across_openblas_kernels(labels_per_coretype, head):
    # model bytes follow the BLAS kernels (see PIN_ENV), but the labels a model predicts must not
    labels = {coretype: predicted[head] for coretype, predicted in labels_per_coretype.items()}
    assert labels["Haswell"] == labels["Sandybridge"] == labels["unset"]
