import dataclasses
import pickle
from collections import namedtuple

import pytest

from ettrace.schema import (
    Attribute,
    AttributeKind,
    CommType,
    ETNode,
    NodeType,
    Trace,
    attr_value_matches_kind,
    get_attr,
    get_int_attr,
    get_str_attr,
    make_attributes,
    parse_schema_version,
)

from conftest import KIND_SAMPLES


def test_node_type_members_exact():
    assert {t.name for t in NodeType} == {
        "INVALID",
        "MEM_LOAD",
        "MEM_STORE",
        "COMP",
        "COMM_SEND",
        "COMM_RECV",
        "COMM_COLL",
    }
    assert NodeType.INVALID.value == 0


def test_attribute_kind_members_exact():
    assert {k.name for k in AttributeKind} == {
        "FLOAT",
        "INT",
        "STRING",
        "FLOATS",
        "INTS",
        "STRINGS",
    }


def test_comm_type_members_exact():
    assert {c.value for c in CommType} == {
        "ALL_REDUCE",
        "ALL_GATHER",
        "REDUCE_SCATTER",
        "ALL_TO_ALL",
        "SEND",
        "RECV",
    }


@pytest.mark.parametrize("kind,value", KIND_SAMPLES)
def test_kind_value_matching(kind, value):
    assert attr_value_matches_kind(kind, value)
    for other_kind, other_value in KIND_SAMPLES:
        if other_kind is kind:
            continue
        # ints are acceptable wherever floats are
        if kind is AttributeKind.FLOAT and other_kind is AttributeKind.INT:
            continue
        if kind is AttributeKind.FLOATS and other_kind is AttributeKind.INTS:
            continue
        assert not attr_value_matches_kind(kind, other_value), (kind, other_value)


# (label, value, kinds that accept it), as recorded before the kind check was
# rewritten as identity tests; every other kind, and any non-kind, rejects it.
_Pair = namedtuple("_Pair", "a b")
KIND_TABLE = [
    ("int", 7, {"INT", "FLOAT"}),
    ("zero", 0, {"INT", "FLOAT"}),
    ("big int", 2**70, {"INT", "FLOAT"}),
    ("True", True, set()),
    ("False", False, set()),
    ("float", 1.5, {"FLOAT"}),
    ("-0.0", -0.0, {"FLOAT"}),
    ("nan", float("nan"), {"FLOAT"}),
    ("str", "x", {"STRING"}),
    ("empty str", "", {"STRING"}),
    ("CommType", CommType.SEND, {"STRING"}),
    ("None", None, set()),
    ("bytes", b"x", set()),
    ("list", [1, 2], set()),
    ("int tuple", (1, 2), {"INTS", "FLOATS"}),
    ("empty tuple", (), {"INTS", "FLOATS", "STRINGS"}),
    ("float tuple", (1.0, 2.5), {"FLOATS"}),
    ("int+float tuple", (1, 2.5), {"FLOATS"}),
    ("tuple with True", (1, True), set()),
    ("tuple of bool", (False,), set()),
    ("str tuple", ("a", "b"), {"STRINGS"}),
    ("str+CommType tuple", ("a", CommType.RECV), {"STRINGS"}),
    ("str+int tuple", ("a", 1), set()),
    ("None tuple", (None,), set()),
    ("namedtuple", _Pair(1, 2), {"INTS", "FLOATS"}),
    ("nested tuple", ((1,),), set()),
]


@pytest.mark.parametrize("label,value,accepted", KIND_TABLE, ids=[row[0] for row in KIND_TABLE])
def test_kind_check_table(label, value, accepted):
    assert {k.name for k in AttributeKind if attr_value_matches_kind(k, value)} == accepted
    for not_a_kind in (None, "INT", 1):
        assert not attr_value_matches_kind(not_a_kind, value)


def test_bool_is_not_an_int_attribute():
    assert not attr_value_matches_kind(AttributeKind.INT, True)
    assert not attr_value_matches_kind(AttributeKind.FLOAT, False)
    with pytest.raises(TypeError):
        make_attributes({"flag": True})


def test_make_attributes_inference():
    attrs = make_attributes(
        {"runtime": 5, "scale": 1.5, "name": "x", "shape": (2, 3), "ct": CommType.SEND, "tags": ["a", "b"]}
    )
    by_name = {a.name: a for a in attrs}
    assert by_name["runtime"].kind is AttributeKind.INT
    assert by_name["scale"].kind is AttributeKind.FLOAT
    assert by_name["name"].kind is AttributeKind.STRING
    assert by_name["shape"].kind is AttributeKind.INTS
    assert by_name["shape"].value == (2, 3)
    assert by_name["ct"] == Attribute("ct", AttributeKind.STRING, "SEND") and type(by_name["ct"].value) is str
    assert by_name["tags"] == Attribute("tags", AttributeKind.STRINGS, ("a", "b"))


def test_make_attributes_rejects_mixed_lists():
    with pytest.raises(TypeError):
        make_attributes({"bad": (1, "two")})
    with pytest.raises(TypeError, match="cannot infer kind for dict"):
        make_attributes({"bad": {1: 2}})


def test_make_attributes_passthrough_and_none():
    attr = Attribute("x", AttributeKind.INT, 3)
    assert make_attributes([attr]) == (attr,)
    assert make_attributes(None) == ()


def test_attribute_coerces_lists_to_tuples():
    attr = Attribute("xs", AttributeKind.INTS, [1, 2])
    assert attr.value == (1, 2)


def test_get_attr_returns_value():
    node = ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"runtime": 5}))
    assert get_attr(node, "runtime") == 5
    assert get_attr(node, "missing") is None
    assert get_attr(node, "missing", 9) == 9
    assert get_int_attr(node, "runtime") == 5


def test_typed_getters_enforce_kind():
    node = ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"tag": "x"}))
    with pytest.raises(TypeError):
        get_int_attr(node, "tag")
    with pytest.raises(TypeError):
        get_str_attr(
            ETNode(2, "m", NodeType.COMP, attributes=make_attributes({"v": 3})), "v"
        )


def test_node_lookup_on_trace():
    node = ETNode(4, "n", NodeType.COMP)
    trace = Trace(npu_id=0, nodes=(node,))
    assert trace.node(4) is node
    with pytest.raises(KeyError):
        trace.node(5)
    assert trace.schema_version == "0.1"


def test_parse_schema_version():
    assert parse_schema_version("0.1") == (0, 1)
    assert parse_schema_version("2.10") == (2, 10)
    for bad in ("", "1", "a.b", "1.2.3", "-1.0", "00.1", "0.01", "\u0660.1", "\u00b2.1", "0.\u00b2", " 0.1", "+0.1"):
        with pytest.raises(ValueError, match="malformed schema_version"):
            parse_schema_version(bad)


def test_nodes_and_attributes_have_no_dict_and_survive_pickle_and_replace():
    attr = Attribute("sizes", AttributeKind.INTS, [1, 2])
    node = ETNode(1, "n", NodeType.COMP, [0], [attr])
    for obj in (attr, node):
        assert not hasattr(obj, "__dict__")
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(obj, protocol)) == obj
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.name = "other"
    twin = dataclasses.replace(node, name="m", parents=[0, 2])
    assert (twin.name, twin.parents, twin.attributes) == ("m", (0, 2), (attr,))
    assert dataclasses.replace(attr, value=[3]).value == (3,)  # __post_init__ still runs


def test_typed_getters_return_the_default_for_an_absent_attribute():
    node = ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"runtime": 5}))
    assert get_int_attr(node, "missing") is None
    assert get_int_attr(node, "missing", 7) == 7
    assert get_str_attr(node, "missing", "x") == "x"
