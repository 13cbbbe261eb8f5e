import dataclasses
import importlib.resources
import json

import pytest
from hypothesis import given, strategies as st

import asvinit
from asvinit import arch, shapes
from asvinit.errors import SchemaError, UnknownName, ValidationError
from conftest import small_chains


def shipped(name):
    return (
        importlib.resources.files("asvinit").joinpath(f"data/{name}.json").read_text()
    )


def test_shipped_toy_file_is_toy_net():
    """The one architecture kept twice: the golden digests read
    data/toy.json, the benchmark's mc-toy serializes toy_net().  Both the
    parsed net and the file's text agree."""
    assert arch.parse_architecture(shipped("toy")) == asvinit.toy_net()
    assert arch.serialize(asvinit.toy_net()) + "\n" == shipped("toy")


def test_geo_is_kept_and_never_stale():
    """geo is resolved once per architecture: a replaced architecture
    infers its own, and a resolved one still equals, hashes and serializes
    like one that has not resolved it."""
    a34 = asvinit.builtin("arch34")
    geo = a34.geo
    assert a34.geo is geo
    small = dataclasses.replace(a34, input_shape=(16, 16, 3))
    assert small.geo == tuple(shapes.infer_shapes(small))
    assert small.geo != geo
    unresolved = arch.Architecture(a34.name, a34.input_shape, a34.layers)
    assert "geo" not in vars(unresolved)
    assert a34 == unresolved and hash(a34) == hash(unresolved)
    fresh = arch.parse_architecture(shipped("arch34"))
    assert a34 == fresh and hash(a34) == hash(fresh)
    assert arch.serialize(a34) == arch.serialize(unresolved) == arch.serialize(fresh)


def test_package_data_holds_the_shipped_files():
    """builtin() reads its JSON file at run time."""
    data = importlib.resources.files("asvinit") / "data"
    names = sorted(p.name for p in data.iterdir() if p.name.endswith(".json"))
    assert names == ["arch34.json", "arch50.json", "toy.json"]


def test_minimal_two_layer_net():
    text = json.dumps({
        "name": "mini",
        "input": [8, 8, 1],
        "layers": [
            {"kind": "Conv", "kernel": [3, 3], "out_channels": 2},
            {"kind": "FullyConnected", "out_channels": 4},
        ],
    })
    parsed = arch.parse_architecture(text)
    assert parsed.num_layers == 2
    # defaults resolved
    assert parsed.layers[0].stride == (1, 1)
    assert parsed.layers[0].padding == (0, 0)
    assert parsed.layers[0].activation == "ReLU"
    assert parsed.layers[1].activation == "Identity"


def test_stride_zero_rejected_with_layer_number():
    text = json.dumps({
        "name": "bad",
        "input": [8, 8, 1],
        "layers": [
            {"kind": "Conv", "kernel": [3, 3], "stride": [0, 1], "out_channels": 2},
            {"kind": "FullyConnected", "out_channels": 4},
        ],
    })
    with pytest.raises(ValidationError, match="layer 1"):
        arch.parse_architecture(text)


def test_unknown_keys_rejected():
    text = json.dumps({
        "name": "bad",
        "input": [8, 8, 1],
        "layers": [
            {"kind": "Conv", "kernel": [3, 3], "out_channels": 2, "dilation": [2, 2]},
            {"kind": "FullyConnected", "out_channels": 4},
        ],
    })
    with pytest.raises(SchemaError, match="dilation"):
        arch.parse_architecture(text)


def test_non_integer_fields_rejected():
    text = json.dumps({
        "name": "bad",
        "input": [8, 8, 1],
        "layers": [
            {"kind": "Conv", "kernel": [3.0, 3], "out_channels": 2},
            {"kind": "FullyConnected", "out_channels": 4},
        ],
    })
    with pytest.raises(SchemaError):
        arch.parse_architecture(text)


def test_padding_must_stay_below_kernel():
    text = json.dumps({
        "name": "bad",
        "input": [8, 8, 1],
        "layers": [
            {"kind": "Conv", "kernel": [3, 3], "padding": [3, 0], "out_channels": 2},
            {"kind": "FullyConnected", "out_channels": 4},
        ],
    })
    with pytest.raises(ValidationError, match="layer 1"):
        arch.parse_architecture(text)


def test_last_layer_must_be_identity_fc():
    bad = asvinit.Architecture(
        name="bad", input_shape=(8, 8, 1),
        layers=(asvinit.LayerSpec(kind="Conv", out_channels=2, kernel=(3, 3)),),
    )
    with pytest.raises(ValidationError, match="last layer"):
        arch.validate(bad)


def test_global_average_carries_no_size():
    with pytest.raises(ValidationError):
        arch.validate(asvinit.Architecture(
            name="bad", input_shape=(8, 8, 1),
            layers=(
                asvinit.LayerSpec(
                    kind="Conv", out_channels=2, kernel=(3, 3),
                    pool=asvinit.Pool(kind="GlobalAverage", size=(2, 2)),
                ),
                asvinit.LayerSpec(kind="FullyConnected", out_channels=4,
                                  activation="Identity"),
            ),
        ))


def test_roundtrip_all_shipped_and_builtin():
    for name in ("arch34", "arch50"):
        a = arch.builtin(name)
        assert arch.parse_architecture(arch.serialize(a)) == a
    t = asvinit.toy_net()
    assert arch.parse_architecture(arch.serialize(t)) == t


def test_roundtrip_randomized_architectures():
    import numpy as np

    rng = np.random.default_rng(606)
    pools = [
        None,
        asvinit.Pool(kind="GlobalAverage"),
        asvinit.Pool(kind="Max", size=(2, 2)),
        asvinit.Pool(kind="Average", size=(2, 2), stride=(1, 1)),
        asvinit.Pool(kind="Max", size=(3, 3), stride=(2, 2), padding=(1, 1)),
    ]
    for trial in range(40):
        layers = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            layers.append(asvinit.LayerSpec(
                kind="Conv",
                out_channels=int(rng.integers(1, 6)),
                kernel=(k, k),
                stride=(int(rng.integers(1, 3)),) * 2,
                padding=(int(rng.integers(0, k)),) * 2,
                activation="ReLU",
                pool=pools[int(rng.integers(0, len(pools)))],
            ))
        layers.append(asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                                        activation="Identity"))
        a = asvinit.Architecture(name=f"r{trial}", input_shape=(17, 17, 2),
                                 layers=tuple(layers))
        try:
            arch.validate(a)
        except ValidationError:
            continue  # collapsed chain; skip
        assert arch.parse_architecture(arch.serialize(a)) == a


@given(a=small_chains())
def test_roundtrip_generated_chains(a):
    assert arch.parse_architecture(arch.serialize(a)) == a


KEYS = ("name", "input", "layers", "kind", "kernel", "stride", "padding",
        "out_channels", "activation", "pool", "size", "t_override")
NAMES = ("Conv", "FullyConnected", "ReLU", "Identity", "Max", "Average",
         "GlobalAverage")
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats()
    | st.sampled_from(NAMES) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(KEYS + ("extra",)), inner, max_size=3),
    max_leaves=6,
)


def _nodes(obj):
    """Every dict and list in a parsed JSON document, root first."""
    if isinstance(obj, (dict, list)):
        yield obj
        for child in obj.values() if isinstance(obj, dict) else obj:
            yield from _nodes(child)


@st.composite
def mutated_documents(draw):
    """The JSON text of a valid chain after one to three random edits: set,
    add or delete a key or list element, or cut the text short."""
    doc = json.loads(arch.serialize(draw(small_chains())))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_nodes(doc))))
        edit = draw(st.sampled_from(("set", "delete", "append")))
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node) + list(KEYS) + ["extra"]))
            if edit == "delete":
                node.pop(key, None)
            else:
                node[key] = draw(JSON_VALUES)
        elif edit == "append" or not node:
            node.append(draw(JSON_VALUES))
        else:
            index = draw(st.integers(0, len(node) - 1))
            if edit == "delete":
                del node[index]
            else:
                node[index] = draw(JSON_VALUES)
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return text


@given(text=mutated_documents())
def test_mutated_documents_raise_only_schema_or_validation_errors(text):
    try:
        a = arch.parse_architecture(text)
    except (SchemaError, ValidationError):
        return
    assert arch.parse_architecture(arch.serialize(a)) == a


def test_builtin_unknown_name():
    # toy.json sits next to the built-ins' files but is not one of them
    for name in ("arch101", "toy", "arch34.json", "../data/arch34"):
        with pytest.raises(UnknownName):
            arch.builtin(name)


def test_builtin_is_parsed_once_per_process(monkeypatch):
    """Every call returns the one parsed object, and only the first parses
    the file.  A bad name still raises UnknownName on every call, an
    unhashable one included, and a replaced built-in infers its own geo."""
    parses = []
    parse = arch.parse_architecture
    monkeypatch.setattr(arch, "parse_architecture", lambda text: parses.append(1) or parse(text))
    arch._parsed_builtin.cache_clear()
    a34 = arch.builtin("arch34")
    assert arch.builtin("arch34") is a34
    assert arch.builtin("arch50") is arch.builtin("arch50") is not a34
    assert len(parses) == 2
    assert a34 == parse(shipped("arch34"))
    for name in ("arch101", "arch101", "toy", ["arch34"], {"arch34": 1}, None):
        with pytest.raises(UnknownName):
            arch.builtin(name)
    small = dataclasses.replace(arch.builtin("arch34"), input_shape=(16, 16, 3))
    assert small.geo == tuple(shapes.infer_shapes(small))
    assert small.geo != a34.geo
    assert a34.geo == tuple(shapes.infer_shapes(a34))


def test_arch34_shapes_match_reference_table():
    report = asvinit.ShapeReport.build(arch.builtin("arch34"))
    conv_shapes = [r.conv_shape for r in report.rows]
    assert conv_shapes[0] == (112, 112, 64)
    assert all(s == (56, 56, 64) for s in conv_shapes[1:7])
    assert all(s == (28, 28, 128) for s in conv_shapes[7:15])
    assert all(s == (14, 14, 256) for s in conv_shapes[15:27])
    assert all(s == (7, 7, 512) for s in conv_shapes[27:33])
    assert report.rows[0].pool_shape == (56, 56, 64)
    assert report.rows[32].pool_shape == (1, 1, 512)
    assert report.rows[33].m_prime == 10


def test_arch34_parameter_count():
    report = asvinit.ShapeReport.build(arch.builtin("arch34"))
    assert abs(report.total_params - 2.11e7) / 2.11e7 < 0.02


def test_arch50_final_feature_shape_and_count():
    report = asvinit.ShapeReport.build(arch.builtin("arch50"))
    assert report.rows[48].pool_shape == (1, 1, 2048)
    assert abs(report.total_params - 2.07e7) / 2.07e7 < 0.02
