import hashlib
import json
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from ettrace import codec
from ettrace.codec import (
    DecodeError,
    FORMAT_BINARY,
    FORMAT_JSON,
    MAGIC,
    decode_trace,
    encode_trace,
    iter_workload,
    read_trace,
    read_workload,
    trace_from_binary,
    trace_from_json,
    trace_to_binary,
    trace_to_json,
    trace_to_obj,
    write_trace,
    write_workload,
)
from ettrace.schema import Attribute, AttributeKind, ETNode, NodeType, Trace, make_attributes
from ettrace.validate import InvalidTraceError, validate_trace
from ettrace.workloads import PRESETS, Parallelism, WorkloadSpec, generate_workload, preset_spec

from conftest import random_valid_trace


def small_trace():
    return Trace(
        npu_id=3,
        nodes=(
            ETNode(1, "load", NodeType.MEM_LOAD, attributes=make_attributes({"tensor_size": 64})),
            ETNode(
                2,
                "mm",
                NodeType.COMP,
                parents=(1,),
                attributes=(
                    Attribute("runtime", AttributeKind.INT, 5, doc_string="cycles"),
                    Attribute("scale", AttributeKind.FLOAT, 0.5),
                    Attribute("dims", AttributeKind.INTS, (4, 4)),
                    Attribute("tags", AttributeKind.STRINGS, ("a", "b")),
                    Attribute("fs", AttributeKind.FLOATS, (1.0, 2.0)),
                    Attribute("s", AttributeKind.STRING, "x"),
                ),
            ),
        ),
    )


def test_json_shape_is_canonical():
    obj = json.loads(trace_to_json(small_trace()))
    assert list(obj) == ["schema_version", "npu_id", "nodes"]
    assert obj["schema_version"] == "0.1"
    assert obj["npu_id"] == 3
    node = obj["nodes"][1]
    assert list(node) == ["id", "name", "type", "parents", "attributes"]
    assert node["type"] == "COMP"
    attr = node["attributes"][0]
    assert list(attr) == ["name", "kind", "doc_string", "value"]
    assert attr == {"name": "runtime", "kind": "INT", "doc_string": "cycles", "value": 5}


def test_json_is_indent2_and_id_sorted():
    shuffled = Trace(0, (ETNode(2, "b", NodeType.COMP), ETNode(1, "a", NodeType.COMP)))
    text = trace_to_json(shuffled)
    assert '\n  "schema_version"' in text
    obj = json.loads(text)
    assert [n["id"] for n in obj["nodes"]] == [1, 2]
    # deterministic: same trace, same text
    assert text == trace_to_json(shuffled)


# Any code point, surrogates included: the emitter must escape what json escapes.
_text = st.text(st.characters(exclude_categories=()), max_size=8)
_ints = st.integers(min_value=-(2**70), max_value=2**70)
_typed_values = {
    AttributeKind.INT: _ints,
    AttributeKind.FLOAT: st.floats(),
    AttributeKind.STRING: _text,
    AttributeKind.INTS: st.lists(_ints, max_size=4).map(tuple),
    AttributeKind.FLOATS: st.lists(st.floats() | _ints, max_size=4).map(tuple),
    AttributeKind.STRINGS: st.lists(_text, max_size=4).map(tuple),
}
# What the unchecked encoders are handed: bools, None, nested lists, objects.
_odd_values = st.recursive(
    st.none() | st.booleans() | st.floats() | _ints | _text,
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_text, inner, max_size=2),
    max_leaves=8,
)
_attributes = st.sampled_from(list(AttributeKind)).flatmap(
    lambda kind: st.builds(
        Attribute, name=_text, kind=st.just(kind), value=_typed_values[kind] | _odd_values, doc_string=_text
    )
)
_nodes = st.builds(
    ETNode,
    id=st.integers(min_value=-5, max_value=2**65),
    name=_text,
    type=st.sampled_from(list(NodeType)),
    parents=st.lists(_ints, max_size=3).map(tuple),
    attributes=st.lists(_attributes, max_size=3).map(tuple),
)
_traces = st.builds(
    Trace,
    npu_id=_ints,
    nodes=st.lists(_nodes, max_size=4).map(tuple),
    schema_version=_text | st.just("0.1"),
)


@settings(max_examples=300, deadline=None)
@given(_traces)
def test_json_emitter_writes_the_bytes_of_json_dumps(trace):
    assert trace_to_json(trace) == json.dumps(trace_to_obj(trace), indent=2) + "\n"


def test_json_emitter_raises_where_json_does():
    trace = Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute("s", AttributeKind.INTS, {1}),)),))
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(trace_to_obj(trace), indent=2)
    with pytest.raises(TypeError, match="not JSON serializable"):
        trace_to_json(trace)


def test_json_roundtrip_small():
    trace = small_trace()
    assert trace_from_json(trace_to_json(trace)) == trace


def test_json_rejects_unknown_node_type():
    obj = json.loads(trace_to_json(small_trace()))
    obj["nodes"][0]["type"] = "COMM_MAGIC"
    with pytest.raises(DecodeError, match="COMM_MAGIC"):
        trace_from_json(json.dumps(obj))


def test_json_rejects_unknown_kind_and_mismatched_value():
    obj = json.loads(trace_to_json(small_trace()))
    obj["nodes"][1]["attributes"][0]["kind"] = "BLOB"
    with pytest.raises(DecodeError, match="BLOB"):
        trace_from_json(json.dumps(obj))
    obj = json.loads(trace_to_json(small_trace()))
    obj["nodes"][1]["attributes"][0]["value"] = "five"
    with pytest.raises(DecodeError, match="does not match kind"):
        trace_from_json(json.dumps(obj))


def test_json_rejects_missing_fields_and_future_major():
    with pytest.raises(DecodeError, match="schema_version"):
        trace_from_json(json.dumps({"npu_id": 0, "nodes": []}))
    with pytest.raises(DecodeError, match="major"):
        trace_from_json(json.dumps({"schema_version": "1.0", "npu_id": 0, "nodes": []}))
    with pytest.raises(DecodeError, match="not valid JSON"):
        trace_from_json("{nope")


def test_json_int_accepted_in_float_slot():
    obj = json.loads(trace_to_json(small_trace()))
    obj["nodes"][1]["attributes"][1]["value"] = 2  # "scale", FLOAT kind
    trace = trace_from_json(json.dumps(obj))
    attr = trace.node(2).attribute("scale")
    assert attr.value == 2.0 and isinstance(attr.value, float)


def test_binary_roundtrip_small():
    trace = small_trace()
    data = trace_to_binary(trace)
    assert data.startswith(MAGIC)
    assert trace_from_binary(data) == trace


def test_binary_bad_magic():
    with pytest.raises(DecodeError, match="offset 0"):
        trace_from_binary(b"NOTET\0" + b"\x00" * 10)


def test_binary_rejects_future_major():
    data = bytearray(trace_to_binary(small_trace()))
    data[len(MAGIC)] = 1  # major version byte
    with pytest.raises(DecodeError, match="major version 1"):
        trace_from_binary(bytes(data))


def test_binary_truncation_names_offset():
    data = trace_to_binary(small_trace())
    for cut in (3, len(MAGIC) + 1, len(data) // 2, len(data) - 1):
        with pytest.raises(DecodeError) as err:
            trace_from_binary(data[:cut])
        assert err.value.offset is not None
        assert err.value.offset <= cut
        assert f"byte offset {err.value.offset}" in str(err.value)


def test_binary_trailing_bytes_rejected():
    data = trace_to_binary(small_trace())
    with pytest.raises(DecodeError, match="trailing"):
        trace_from_binary(data + b"\x00")


def test_binary_unknown_type_tag():
    trace = Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"runtime": 1})),))
    data = trace_to_binary(trace)
    # node record: u64 id + u16 name len + name "n" -> type tag next
    header = len(MAGIC) + 2 + 4 + 4 + 4  # magic, version, npu_id, count, record len
    tag_at = header + 8 + 2 + 1
    assert data[tag_at] == NodeType.COMP.value
    patched = bytearray(data)
    patched[tag_at] = 250
    with pytest.raises(DecodeError, match="type tag 250"):
        trace_from_binary(bytes(patched))


def test_binary_negative_int_attr_roundtrips():
    trace = Trace(
        0, (ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"delta": -(2**40)})),)
    )
    assert trace_from_binary(trace_to_binary(trace)) == trace


def test_roundtrip_random_traces_both_formats(rng):
    for _ in range(30):
        trace = random_valid_trace(rng, npu_id=rng.randint(0, 9), max_nodes=80)
        assert trace_from_json(trace_to_json(trace)) == trace
        assert trace_from_binary(trace_to_binary(trace)) == trace


def test_encode_refuses_invalid_trace(tmp_path):
    bad = Trace(0, (ETNode(1, "n", NodeType.COMP, parents=(9,)),))
    for fmt in (FORMAT_JSON, FORMAT_BINARY):
        with pytest.raises(InvalidTraceError):
            encode_trace(bad, fmt)
        with pytest.raises(InvalidTraceError):
            write_trace(bad, tmp_path / f"bad.{fmt}")
    with pytest.raises(InvalidTraceError):
        write_workload([Trace(1), bad], tmp_path / "w")
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]  # refused before any byte is written
    # the raw encoders write it (e.g. for bug-report dumps)
    assert decode_trace(trace_to_json(bad).encode("utf-8")) == bad
    assert decode_trace(trace_to_binary(bad)) == bad


def test_decode_sniffs_format():
    trace = small_trace()
    assert decode_trace(encode_trace(trace, FORMAT_JSON)) == trace
    assert decode_trace(encode_trace(trace, FORMAT_BINARY)) == trace
    with pytest.raises(ValueError, match="format"):
        encode_trace(trace, "yaml")


def test_workload_files_roundtrip(tmp_path, rng):
    traces = [random_valid_trace(rng, npu_id=i, max_nodes=20) for i in range(4)]
    paths = write_workload(traces, tmp_path / "w", fmt=FORMAT_BINARY)
    assert [p.name for p in paths] == [f"trace.{i}.et" for i in range(4)]
    back = read_workload(tmp_path / "w")
    assert back == sorted(traces, key=lambda t: t.npu_id)


def test_workload_custom_prefix(tmp_path):
    write_workload([Trace(0), Trace(1)], tmp_path, prefix="run")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.0.et", "run.1.et"]
    assert len(read_workload(tmp_path, prefix="run")) == 2
    with pytest.raises(FileNotFoundError):
        read_workload(tmp_path, prefix="other")


def test_iter_workload_finds_files_at_once_and_decodes_each_when_reached(tmp_path):
    with pytest.raises(FileNotFoundError, match="no trace.<npu_id>.et files"):
        iter_workload(tmp_path)  # before any trace is asked for
    write_workload([Trace(0), Trace(1)], tmp_path)
    (tmp_path / "trace.1.et").write_bytes(b"{")
    traces = iter_workload(tmp_path)
    assert next(traces) == Trace(0)
    with pytest.raises(DecodeError, match="trace.1.et: not valid JSON"):
        next(traces)


def test_iter_workload_skips_stems_that_are_not_ascii_digits(tmp_path):
    write_workload([Trace(0), Trace(1)], tmp_path)
    for stem in ("x", "\u00b2", "\u0663"):  # "²" and "٣" pass str.isdigit
        (tmp_path / f"trace.{stem}.et").write_bytes(b"garbage")
    assert list(iter_workload(tmp_path)) == [Trace(0), Trace(1)]


@given(st.text(alphabet="019.\u00b2\u0660\u0663 +-", max_size=6))
@example("0.1")
@example("0.255")
@example("00.1")
@example("\u0660.1")
def test_a_schema_version_that_passes_the_gate_survives_both_codecs(version):
    trace = Trace(0, schema_version=version)
    if not validate_trace(trace).ok:
        return
    assert trace_from_binary(trace_to_binary(trace)) == trace
    assert trace_from_json(trace_to_json(trace)) == trace


def test_workload_filename_npu_mismatch(tmp_path):
    write_trace(Trace(5), tmp_path / "trace.0.et")
    with pytest.raises(DecodeError, match="filename says npu 0"):
        read_workload(tmp_path)


def test_read_trace_error_names_path(tmp_path):
    path = tmp_path / "trace.0.et"
    path.write_bytes(b"garbage")
    with pytest.raises(DecodeError, match="trace.0.et"):
        read_trace(path)


# Valid traces whose payloads come from small pools, so equal attributes repeat
# across nodes and 0.0 meets -0.0 under one name. FLOAT payloads are floats:
# an int is legal there too, but it decodes as a float, so its JSON text
# changes once (1 -> 1.0).
_int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_valid_values = {
    AttributeKind.INT: st.sampled_from([0, 1, -1]) | _int64,
    AttributeKind.FLOAT: st.sampled_from([0.0, -0.0, 1.0]) | _finite,
    AttributeKind.STRING: st.sampled_from(["", "x", "é"]) | st.text(max_size=4),
    AttributeKind.INTS: st.lists(_int64, max_size=3).map(tuple),
    AttributeKind.FLOATS: st.lists(st.sampled_from([0.0, -0.0]) | _finite, max_size=3).map(tuple),
    AttributeKind.STRINGS: st.lists(st.text(max_size=4), max_size=3).map(tuple),
}
_valid_attributes = st.sampled_from(list(AttributeKind)).flatmap(
    lambda kind: st.builds(
        Attribute,
        name=st.sampled_from(["a", "b", "é☃", 'q"\\']),
        kind=st.just(kind),
        value=_valid_values[kind],
        doc_string=st.sampled_from(["", "doc"]),
    )
)


@st.composite
def _valid_traces(draw):
    ids = draw(st.lists(st.integers(min_value=0, max_value=2**64 - 1), unique=True, max_size=6))
    nodes = []
    for i, node_id in enumerate(ids):
        parents = draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=3)) if i else []
        nodes.append(
            ETNode(
                node_id,
                draw(st.sampled_from(["n", "étape", ""]) | st.text(max_size=4)),
                draw(st.sampled_from([NodeType.INVALID, NodeType.MEM_LOAD, NodeType.MEM_STORE, NodeType.COMP])),
                tuple(parents),
                tuple(draw(st.lists(_valid_attributes, unique_by=lambda a: a.name, max_size=4))),
            )
        )
    npu_id = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return Trace(npu_id, tuple(nodes), draw(st.sampled_from(["0.1", "0.0", "0.255"])))


@settings(max_examples=150, deadline=None)
@given(_valid_traces())
def test_both_codecs_roundtrip_by_bytes(trace):
    # Bytes, not ==: -0.0 == 0.0 and 1 == 1.0, so == cannot see such a merge.
    for fmt in (FORMAT_JSON, FORMAT_BINARY):
        data = encode_trace(trace, fmt)
        assert encode_trace(decode_trace(data), fmt) == data


# Near-valid traces: ids that are not exactly int, and text with lone surrogates.
_gate_ids = st.sampled_from([*range(12), True, 1.0, "1"])
_gate_text = st.sampled_from(["n", "é", "", "a\ud800", "\udfff"]) | st.text(max_size=3) | _text
_gate_attributes = st.sampled_from(list(AttributeKind)).flatmap(
    lambda kind: st.builds(
        Attribute,
        name=_gate_text.filter(bool),
        kind=st.just(kind),
        value=st.lists(_gate_text, max_size=2).map(tuple) if kind is AttributeKind.STRINGS
        else _gate_text if kind is AttributeKind.STRING else _valid_values[kind],
        doc_string=_gate_text,
    )
)


@st.composite
def _gate_traces(draw):
    ids = draw(st.lists(_gate_ids, unique=True, max_size=4))
    nodes = [
        ETNode(
            node_id,
            draw(_gate_text),
            draw(st.sampled_from([NodeType.INVALID, NodeType.COMP])),
            tuple(draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=2))) if i else (),
            tuple(draw(st.lists(_gate_attributes, unique_by=lambda a: a.name, max_size=2))),
        )
        for i, node_id in enumerate(ids)
    ]
    return Trace(draw(_gate_ids), tuple(nodes))


@settings(max_examples=300, deadline=None)
@given(_gate_traces())
def test_what_validation_passes_both_codecs_encode_and_round_trip(trace):
    if not validate_trace(trace).ok:
        for fmt in (FORMAT_JSON, FORMAT_BINARY):
            with pytest.raises(InvalidTraceError):
                encode_trace(trace, fmt)
        return
    for fmt in (FORMAT_JSON, FORMAT_BINARY):
        data = encode_trace(trace, fmt)
        assert encode_trace(decode_trace(data), fmt) == data


@settings(max_examples=60, deadline=None)
@given(_valid_traces(), st.integers(min_value=1, max_value=255))
def test_binary_prefixes_and_byte_changes_decode_or_name_an_offset(trace, flip):
    data = trace_to_binary(trace)
    changed = []
    for i in range(len(data)):
        patched = bytearray(data)
        patched[i] ^= flip
        changed.append(bytes(patched))
    for blob in [data[:cut] for cut in range(len(data))] + changed:
        try:
            trace_from_binary(blob)
        except DecodeError as err:
            assert err.offset is not None, err


@settings(max_examples=40, deadline=None)
@given(_valid_traces().filter(lambda t: len(t.nodes) > 1), st.integers(min_value=1, max_value=255))
@example(small_trace(), 0x80)
def test_binary_reads_stay_inside_each_node_record(trace, flip):
    data = trace_to_binary(trace)
    changed = []
    for i in range(len(data)):
        patched = bytearray(data)
        patched[i] ^= flip
        changed.append(bytes(patched))
    for blob in [data[:cut] for cut in range(len(data))] + changed:
        try:
            trace_from_binary(blob)
        except DecodeError as err:
            assert err.offset is not None and 0 <= err.offset <= len(blob), err
            assert " has -" not in str(err), err  # no negative count of unread bytes


def test_equal_attributes_decode_to_shared_objects():
    attrs = make_attributes({"runtime": 5, "comm_group": "dp", "scale": 0.5, "zero": -0.0})
    trace = Trace(0, (
        ETNode(1, "a", NodeType.COMP, attributes=attrs),
        ETNode(2, "b", NodeType.COMP, attributes=attrs),
        ETNode(3, "c", NodeType.COMP, attributes=make_attributes({"zero": 0.0})),
    ))
    for fmt in (FORMAT_JSON, FORMAT_BINARY):
        a, b, c = decode_trace(encode_trace(trace, fmt)).nodes
        for x, y in zip(a.attributes[:3], b.attributes[:3]):
            assert x is y, (fmt, x)
        zero = c.attribute("zero").value
        assert str(a.attribute("zero").value) == "-0.0" and str(zero) == "0.0", fmt


def test_json_interning_keeps_value_types_apart():
    obj = json.loads(trace_to_json(Trace(0, (
        ETNode(1, "a", NodeType.COMP, attributes=make_attributes({"x": 1})),
        ETNode(2, "b", NodeType.COMP, attributes=make_attributes({"x": 1})),
    ))))
    for bad in (1.0, True):
        obj["nodes"][1]["attributes"][0]["value"] = bad
        with pytest.raises(DecodeError, match="does not match kind"):
            trace_from_json(json.dumps(obj))


# sha256 of the binary encoding of every preset, a pipeline, a trace with
# every attribute kind and coercion, and seeded random traces, recorded
# before the binary encoder packed through the decoder's field table.
BINARY_CORPUS_SHA256 = "7b09fcef5da72518f8c30410bba972e3b4f73834daf9520e43bdbf37789a9530"


def _binary_corpus():
    for name in sorted(PRESETS):
        yield from generate_workload(preset_spec(name, 4))
    yield from generate_workload(WorkloadSpec(npus=3, parallelism=Parallelism.PIPELINE, layers=3, microbatches=2))
    yield small_trace()
    yield Trace(7, (ETNode(2**64 - 1, "é☃", NodeType.COMP, attributes=(
        Attribute("f", AttributeKind.FLOAT, 3),  # an int payload packs as 3.0
        Attribute("z", AttributeKind.FLOAT, -0.0, "ünï"),
        Attribute("fs", AttributeKind.FLOATS, (1, -0.0, 2.5)),
        Attribute("is", AttributeKind.INTS, (-(2**63), 2**63 - 1)),
        Attribute("e", AttributeKind.INTS, ()),
        Attribute("ss", AttributeKind.STRINGS, ("", "☃")),
        Attribute("n", AttributeKind.INT, -(2**63)),
    )),), "0.255")
    rng = random.Random(0xB1)
    for npu in range(40):
        yield random_valid_trace(rng, npu_id=npu)


def test_binary_encoding_of_a_seeded_corpus_is_pinned():
    digest = hashlib.sha256()
    for trace in _binary_corpus():
        digest.update(trace_to_binary(trace))
    assert digest.hexdigest() == BINARY_CORPUS_SHA256


def _odd(**node_fields) -> Trace:
    fields = {"id": 1, "name": "n", "type": NodeType.COMP, "parents": (), "attributes": ()}
    fields.update(node_fields)
    return Trace(0, (ETNode(**fields),))


def _odd_attr(kind, value, name="a", doc="") -> Trace:
    return _odd(attributes=(Attribute(name, kind, value, doc),))


# Traces validation refuses, given to the unchecked binary encoder, trace_to_binary:
# what it raises (module, type and text), or the sha256 of what it writes.
UNVALIDATED_TRACES = {
    "type-is-a-str": _odd(type="COMP"),
    "negative-id": _odd(id=-1),
    "id-above-u64": _odd(id=2**64),
    "id-is-a-str": _odd(id="1"),
    "id-is-a-bool": _odd(id=True),
    "mixed-id-types": Trace(0, (ETNode(1, "a", NodeType.COMP), ETNode("2", "b", NodeType.COMP))),
    "negative-npu": Trace(-1),
    "npu-above-u32": Trace(2**32),
    "minor-above-u8": Trace(0, (), "0.256"),
    "bad-version": Trace(0, (), "x"),
    "name-is-an-int": _odd(name=5),
    "name-is-a-surrogate": _odd(name="a\ud800"),
    "name-over-u16": _odd(name="x" * 70_000),
    "negative-parent": _odd(parents=(-1,)),
    "parent-is-a-str": _odd(parents=("1",)),
    "attrs-over-u16": _odd(attributes=(Attribute("a", AttributeKind.INT, 1),) * 70_000),
    "attr-name-is-an-int": _odd_attr(AttributeKind.INT, 1, name=5),
    "attr-name-over-u16": _odd_attr(AttributeKind.INT, 1, name="x" * 70_000),
    "doc-is-none": _odd_attr(AttributeKind.INT, 1, doc=None),
    "doc-is-a-surrogate": _odd_attr(AttributeKind.INT, 1, doc="\udfff"),
    "kind-is-a-str": _odd_attr("INT", 1),
    "int-holds-a-str": _odd_attr(AttributeKind.INT, "x"),
    "int-above-i64": _odd_attr(AttributeKind.INT, 2**63),
    "float-holds-a-bool": _odd_attr(AttributeKind.FLOAT, True),
    "float-too-large": _odd_attr(AttributeKind.FLOAT, 10**400),
    "float-is-nan": _odd_attr(AttributeKind.FLOAT, float("nan")),
    "string-is-a-surrogate": _odd_attr(AttributeKind.STRING, "\ud800"),
    "floats-too-large": _odd_attr(AttributeKind.FLOATS, (1.0, 10**400)),
    "ints-above-i64": _odd_attr(AttributeKind.INTS, (1, 2**63)),
    "strings-hold-an-int": _odd_attr(AttributeKind.STRINGS, ("a", 1)),
    "strings-item-is-a-surrogate": _odd_attr(AttributeKind.STRINGS, ("a", "\ud800")),
}
UNVALIDATED_OUTCOMES = {
    'attr-name-is-an-int': "builtins.AttributeError: 'int' object has no attribute 'encode'",
    'attr-name-over-u16': 'struct.error: ushort format requires 0 <= number <= 65535',
    'attrs-over-u16': 'struct.error: ushort format requires 0 <= number <= 65535',
    'bad-version': "builtins.ValueError: malformed schema_version 'x'; expected '<major>.<minor>'",
    'doc-is-a-surrogate': "builtins.UnicodeEncodeError: 'utf-8' codec can't encode character '\\udfff' in position 0: surrogates not allowed",
    'doc-is-none': "builtins.AttributeError: 'NoneType' object has no attribute 'encode'",
    'float-holds-a-bool': "builtins.ValueError: attribute 'a': value does not match kind FLOAT",
    'float-is-nan': '74f1a6e4140cec8931b4bb54af3ee70b5021e735bae7420a2a9cecb0e18e8822',
    'float-too-large': 'builtins.OverflowError: int too large to convert to float',
    'floats-too-large': 'builtins.OverflowError: int too large to convert to float',
    'id-above-u64': 'struct.error: argument out of range',
    'id-is-a-bool': '8d6146408590cf691f03f1c29ec257e52093925aa33c01e31e930b4322bbaadd',
    'id-is-a-str': 'struct.error: required argument is not an integer',
    'int-above-i64': 'struct.error: argument out of range',
    'int-holds-a-str': "builtins.ValueError: attribute 'a': value does not match kind INT",
    'ints-above-i64': 'struct.error: argument out of range',
    'kind-is-a-str': "builtins.AttributeError: 'str' object has no attribute 'name'",
    'minor-above-u8': 'struct.error: ubyte format requires 0 <= number <= 255',
    'mixed-id-types': "builtins.TypeError: '<' not supported between instances of 'str' and 'int'",
    'name-is-a-surrogate': "builtins.UnicodeEncodeError: 'utf-8' codec can't encode character '\\ud800' in position 1: surrogates not allowed",
    'name-is-an-int': "builtins.AttributeError: 'int' object has no attribute 'encode'",
    'name-over-u16': 'struct.error: ushort format requires 0 <= number <= 65535',
    'negative-id': 'struct.error: argument out of range',
    'negative-npu': 'struct.error: argument out of range',
    'negative-parent': 'struct.error: argument out of range',
    'npu-above-u32': "struct.error: 'I' format requires 0 <= number <= 4294967295",
    'parent-is-a-str': 'struct.error: required argument is not an integer',
    'string-is-a-surrogate': "builtins.UnicodeEncodeError: 'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed",
    'strings-hold-an-int': "builtins.ValueError: attribute 'a': value does not match kind STRINGS",
    'strings-item-is-a-surrogate': "builtins.UnicodeEncodeError: 'utf-8' codec can't encode character '\\ud800' in position 0: surrogates not allowed",
    'type-is-a-str': "builtins.KeyError: 'COMP'",
}


@pytest.mark.parametrize("name", sorted(UNVALIDATED_TRACES))
def test_binary_encoding_of_unvalidated_traces_is_pinned(name):
    try:
        data = trace_to_binary(UNVALIDATED_TRACES[name])
    except Exception as exc:
        outcome = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
    else:
        outcome = hashlib.sha256(data).hexdigest()
    assert outcome == UNVALIDATED_OUTCOMES[name]


def test_validation_bounds_are_the_binary_field_widths():
    """Each bound validation enforces is the largest value the codec struct storing it can pack."""
    from ettrace import validate

    # (struct, its fields with None at the bounded one, low, high)
    for st, fields, low, high in (
        (codec._VERSION, (0, None), 0, validate._U8_MAX),  # the minor version byte
        (codec._TAG_COUNT, (None, 0), 0, validate._U8_MAX),  # the tag byte
        (codec._U16, (None,), 0, validate._U16_MAX),
        (codec._U32, (None,), 0, validate._U32_MAX),
        (codec._U64, (None,), 0, validate._U64_MAX),
        (codec._SCALAR_VALUE[AttributeKind.INT.value], (None,), validate._I64_MIN, validate._I64_MAX),
    ):
        at = fields.index(None)
        for value in (low, high):
            assert st.unpack(st.pack(*fields[:at], value, *fields[at + 1 :]))[at] == value
        for past in (low - 1, high + 1):
            with pytest.raises(struct.error):
                st.pack(*fields[:at], past, *fields[at + 1 :])
    most = Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=make_attributes(
        {f"a{i}": i for i in range(validate._U16_MAX)})),))
    assert validate_trace(most).ok
    assert decode_trace(encode_trace(most, FORMAT_BINARY)) == most


def test_json_refuses_a_malformed_schema_version():
    obj = trace_to_obj(small_trace())
    obj["schema_version"] = "0.x"
    with pytest.raises(DecodeError, match="0.x"):
        trace_from_json(json.dumps(obj))


def test_decode_refuses_an_unknown_format():
    with pytest.raises(ValueError, match="unknown trace format 'xml'"):
        decode_trace(trace_to_binary(small_trace()), fmt="xml")
