import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ettrace.codec import FORMAT_BINARY, FORMAT_JSON, decode_trace, encode_trace, trace_to_json, write_trace
from ettrace.costmodel import Topology, TopologyKind
from ettrace.feeder import Feeder
from ettrace.simulator import DeadlockError, SimConfig, run_simulation
from ettrace.schema import Attribute, AttributeKind, CommType, ETNode, NodeType, Trace, make_attributes
from ettrace import validate as v
from ettrace.builder import TraceBuilder

from conftest import random_valid_trace
from oracles import unpeelable_oracle


def comp(node_id, parents=(), runtime=1):
    return ETNode(
        node_id, f"n{node_id}", NodeType.COMP,
        parents=tuple(parents), attributes=make_attributes({"runtime": runtime}),
    )


def coll(node_id, parents=(), **overrides):
    attrs = {"comm_type": "ALL_REDUCE", "comm_size": 64, "comm_group": "dp"}
    attrs.update(overrides)
    attrs = {k: val for k, val in attrs.items() if val is not None}
    return ETNode(
        node_id, f"c{node_id}", NodeType.COMM_COLL,
        parents=tuple(parents), attributes=make_attributes(attrs),
    )


def codes(trace):
    return set(v.validate_trace(trace).codes())


def test_empty_and_simple_traces_are_valid():
    assert v.validate_trace(Trace(0)).ok
    assert v.validate_trace(Trace(3, (comp(1), comp(2, [1])))).ok


def test_random_traces_are_valid(rng):
    for _ in range(25):
        report = v.validate_trace(random_valid_trace(rng, max_nodes=60))
        assert report.ok, str(report)


def test_duplicate_id():
    assert v.DUPLICATE_ID in codes(Trace(0, (comp(1), comp(1))))


def test_negative_id():
    assert v.NEGATIVE_ID in codes(Trace(0, (comp(-4),)))


def test_dangling_parent():
    assert v.DANGLING_PARENT in codes(Trace(0, (comp(1, [99]),)))


def test_self_parent():
    assert v.SELF_PARENT in codes(Trace(0, (comp(1, [1]),)))


def test_duplicate_parent():
    assert v.DUPLICATE_PARENT in codes(Trace(0, (comp(1), comp(2, [1, 1]))))


def test_cycle_detected_with_members_named():
    trace = Trace(0, (comp(1, [2]), comp(2, [1]), comp(3)))
    report = v.validate_trace(trace)
    cycle_ids = {viol.node_id for viol in report.violations if viol.code == v.CYCLE}
    assert cycle_ids == {1, 2}


def test_cycle_report_names_the_nodes_downstream_of_a_cycle():
    # 0 -> {1 <-> 2} -> 3 -> 4: peeling leaves 3 and 4 too, and the message says so
    trace = Trace(0, (comp(0), comp(1, [0, 2]), comp(2, [0, 1]), comp(3, [2]), comp(4, [3])))
    cycle = [viol for viol in v.validate_trace(trace).violations if viol.code == v.CYCLE]
    assert {viol.node_id for viol in cycle} == {1, 2, 3, 4}
    assert {viol.message for viol in cycle} == {"node is on a dependency cycle or depends on one"}


@st.composite
def _messy_graphs(draw):
    """id -> parents over distinct int ids, with dangling, repeated, self and non-int parents."""
    ids = draw(st.lists(st.integers(0, 12), unique=True, max_size=9))
    parent = st.one_of(
        st.sampled_from(ids) if ids else st.nothing(),  # a real parent, itself included
        st.integers(0, 15),  # often dangling
        st.sampled_from([-1, "1", 1.0, True, None]),
    )
    return {node_id: draw(st.lists(parent, max_size=4)) for node_id in ids}


@settings(max_examples=300, deadline=None)
@given(_messy_graphs())
def test_cycle_ids_match_a_brute_force_peel(parents):
    trace = Trace(0, tuple(ETNode(i, f"n{i}", NodeType.COMP, tuple(ps)) for i, ps in parents.items()))
    cycle_ids = {viol.node_id for viol in v.validate_trace(trace).violations if viol.code == v.CYCLE}
    assert cycle_ids == unpeelable_oracle(parents)


def test_empty_attribute_name():
    node = ETNode(1, "n", NodeType.COMP, attributes=(Attribute("", AttributeKind.INT, 1),))
    assert v.EMPTY_ATTR_NAME in codes(Trace(0, (node,)))


def test_duplicate_attribute():
    node = ETNode(
        1, "n", NodeType.COMP,
        attributes=(Attribute("x", AttributeKind.INT, 1), Attribute("x", AttributeKind.INT, 2)),
    )
    assert v.DUPLICATE_ATTRIBUTE in codes(Trace(0, (node,)))


def test_kind_value_mismatch():
    node = ETNode(1, "n", NodeType.COMP, attributes=(Attribute("x", AttributeKind.INT, "s"),))
    assert v.KIND_VALUE_MISMATCH in codes(Trace(0, (node,)))


def test_wrong_kind_for_well_known_attribute():
    node = ETNode(
        1, "n", NodeType.COMP, attributes=(Attribute("runtime", AttributeKind.STRING, "5"),)
    )
    assert v.WRONG_ATTR_KIND in codes(Trace(0, (node,)))


def test_collective_requires_type_size_group():
    assert v.MISSING_REQUIRED_ATTR in codes(Trace(0, (coll(1, comm_type=None),)))
    assert v.MISSING_REQUIRED_ATTR in codes(Trace(0, (coll(1, comm_size=None),)))
    assert v.MISSING_REQUIRED_ATTR in codes(Trace(0, (coll(1, comm_group=None),)))
    assert v.validate_trace(Trace(0, (coll(1),))).ok


def test_send_recv_require_size_and_peer():
    node = ETNode(
        1, "s", NodeType.COMM_SEND, attributes=make_attributes({"comm_size": 8})
    )
    assert v.MISSING_REQUIRED_ATTR in codes(Trace(0, (node,)))
    good = ETNode(
        1, "s", NodeType.COMM_SEND,
        attributes=make_attributes({"comm_size": 8, "comm_peer": 1}),
    )
    assert v.validate_trace(Trace(0, (good,))).ok


def test_bad_comm_type_values():
    assert v.BAD_COMM_TYPE in codes(Trace(0, (coll(1, comm_type="BROADCAST"),)))
    # point-to-point types are not collectives
    assert v.BAD_COMM_TYPE in codes(Trace(0, (coll(1, comm_type="SEND"),)))
    send = ETNode(
        1, "s", NodeType.COMM_SEND,
        attributes=make_attributes(
            {"comm_size": 8, "comm_peer": 1, "comm_type": "ALL_REDUCE"}
        ),
    )
    assert v.BAD_COMM_TYPE in codes(Trace(0, (send,)))
    recv = ETNode(
        1, "r", NodeType.COMM_RECV,
        attributes=make_attributes({"comm_size": 8, "comm_peer": 1, "comm_type": "SEND"}),
    )
    assert v.BAD_COMM_TYPE in codes(Trace(0, (recv,)))


def test_negative_size():
    assert v.NEGATIVE_SIZE in codes(Trace(0, (coll(1, comm_size=-1),)))
    assert v.NEGATIVE_SIZE in codes(Trace(0, (comp(1, runtime=-5),)))
    for name in ("tensor_size", "num_ops"):
        node = ETNode(1, "n", NodeType.MEM_LOAD, attributes=make_attributes({name: -1}))
        assert codes(Trace(0, (node,))) == {v.NEGATIVE_SIZE}, name
    assert v.validate_trace(Trace(0, (comp(1, runtime=0),))).ok


def test_out_of_range_for_the_binary_container():
    def attr_node(**attrs):
        return ETNode(1, "n", NodeType.COMP, attributes=make_attributes(attrs))

    long_name = "\u00e9" * 32768  # 65,536 UTF-8 bytes
    too_many = tuple(Attribute(f"a{i}", AttributeKind.INT, i) for i in range(65536))
    for trace in (
        Trace(-1),
        Trace(2**32),
        Trace(0, schema_version="0.256"),
        Trace(0, (ETNode(2**64, "n", NodeType.COMP),)),
        Trace(0, (attr_node(x=2**63),)),
        Trace(0, (attr_node(x=-(2**63) - 1),)),
        Trace(0, (attr_node(xs=[0, 2**63]),)),
        Trace(0, (attr_node(xs=[-(2**63) - 1]),)),
        Trace(0, (ETNode(1, long_name, NodeType.COMP),)),
        Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute(long_name, AttributeKind.INT, 1),)),)),
        Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=too_many),)),
    ):
        assert codes(trace) == {v.OUT_OF_RANGE}, trace.npu_id
        with pytest.raises(v.InvalidTraceError, match="out-of-range"):
            encode_trace(trace, FORMAT_BINARY)
    edge = Trace(2**32 - 1, (
        ETNode(2**64 - 1, "\u00e9" * 32767, NodeType.COMP, attributes=make_attributes(
            {"lo": -(2**63), "hi": 2**63 - 1, "xs": [-(2**63), 2**63 - 1], "empty": []})),
    ), schema_version="0.255")
    assert v.validate_trace(edge).ok
    assert decode_trace(encode_trace(edge, FORMAT_BINARY)) == edge


def test_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf, 10**400):
        node = ETNode(1, "n", NodeType.COMP, attributes=(Attribute("f", AttributeKind.FLOAT, value),))
        assert codes(Trace(0, (node,))) == {v.NON_FINITE}, value
        decoded = decode_trace(trace_to_json(Trace(0, (node,))).encode())
        assert codes(decoded) == {v.NON_FINITE}, value
        node = ETNode(1, "n", NodeType.COMP, attributes=(Attribute("f", AttributeKind.FLOATS, (1.0, value)),))
        assert codes(Trace(0, (node,))) == {v.NON_FINITE}, value
        decoded = decode_trace(trace_to_json(Trace(0, (node,))).encode())
        assert codes(decoded) == {v.NON_FINITE}, value
        with pytest.raises(v.InvalidTraceError, match="non-finite"):
            encode_trace(Trace(0, (node,)), FORMAT_JSON)
        b = TraceBuilder(0)
        b.add_node("COMP", "n", {"x": [1.5, value]})
        with pytest.raises(v.InvalidTraceError, match="non-finite"):
            b.build()
    finite = make_attributes({"f": -1.7976931348623157e308, "fs": [0.0, 5e-324, 1.7976931348623157e308]})
    assert v.validate_trace(Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=finite),))).ok


def test_names_and_doc_strings_must_be_strings():
    named_five = Trace(0, (ETNode(1, 5, NodeType.COMP, attributes=make_attributes({"runtime": 1})),))
    for trace in (
        named_five,
        Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute(7, AttributeKind.INT, 1),)),)),
        Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute(["x"], AttributeKind.INT, 1),)),)),
        Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute("x", AttributeKind.INT, 1, doc_string=b"d"),)),)),
    ):
        assert codes(trace) == {v.NOT_A_STRING}
        for fmt in (FORMAT_JSON, FORMAT_BINARY):
            with pytest.raises(v.InvalidTraceError, match="not-a-string"):
                encode_trace(trace, fmt)
    assert v.NOT_A_STRING in v.ALL_CODES
    assert codes(Trace(0, schema_version=1)) == {v.BAD_SCHEMA_VERSION}


def test_node_type_must_be_enum():
    # a raw string would crash the codec later; catch it here
    node = ETNode(1, "x", "COMP")
    assert v.BAD_NODE_TYPE in codes(Trace(0, (node,)))


def test_bad_schema_version():
    assert v.BAD_SCHEMA_VERSION in codes(Trace(0, (), schema_version="1.0"))
    assert v.BAD_SCHEMA_VERSION in codes(Trace(0, (), schema_version="zzz"))
    assert v.validate_trace(Trace(0, (), schema_version="0.7")).ok


def test_invalid_nodes_need_no_attributes():
    trace = Trace(0, (ETNode(1, "x", NodeType.INVALID),))
    assert v.validate_trace(trace).ok


def test_report_str_and_error():
    report = v.validate_trace(Trace(0, (comp(1, [99]),)))
    assert not report.ok
    assert "99" in str(report)
    err = v.InvalidTraceError(report, "ctx")
    assert "ctx" in str(err)
    assert err.report is report


def test_validate_workload_duplicate_npu():
    t0, t1 = Trace(0, (comp(1),)), Trace(0, (comp(1),))
    report = v.validate_workload([t0, t1])
    assert not report.ok
    assert v.DUPLICATE_ID in report.codes()
    assert v.validate_workload([Trace(0), Trace(1)]).ok


def test_ids_must_be_ints():
    for trace in (
        Trace("0"),
        Trace(True),
        Trace(0.0),
        Trace(0, (comp("1"),)),
        Trace(0, (comp(True),)),
        Trace(0, (comp(1.0),)),
        Trace(0, (comp(1), comp(2, [[1]]))),
        Trace(0, (comp(1), comp(2, [True]))),
        Trace(0, (comp(1), comp(2, [1.0]))),
    ):
        assert codes(trace) == {v.NOT_AN_INT}, trace
        for fmt in (FORMAT_JSON, FORMAT_BINARY):
            with pytest.raises(v.InvalidTraceError, match="not-an-int"):
                encode_trace(trace, fmt)
    # A non-int id never reaches the id, parent and cycle checks.
    assert codes(Trace(0, (comp([1], [[1]]), comp(2, [2])))) == {v.NOT_AN_INT, v.SELF_PARENT}
    assert not v.validate_workload([Trace([0]), Trace(0)]).ok
    assert v.NOT_AN_INT in v.ALL_CODES


def test_lone_surrogates_are_not_utf8_text():
    bad = "a\ud800"

    def with_attr(*args, **kw):
        return Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=(Attribute(*args, **kw),)),))

    for trace in (
        Trace(0, (ETNode(1, bad, NodeType.COMP),)),
        with_attr(bad, AttributeKind.INT, 1),
        with_attr("x", AttributeKind.INT, 1, doc_string=bad),
        with_attr("x", AttributeKind.STRING, bad),
        with_attr("x", AttributeKind.STRINGS, ("ok", "\udfff")),
    ):
        assert codes(trace) == {v.NOT_A_STRING}, trace
        for fmt in (FORMAT_JSON, FORMAT_BINARY):
            with pytest.raises(v.InvalidTraceError, match="not UTF-8 text"):
                encode_trace(trace, fmt)
    fine = with_attr("\u00e9\U0001f600", AttributeKind.STRINGS, ("\u2603", ""), doc_string="\u00e9")
    assert v.validate_trace(fine).ok


def _refused_everywhere(trace):
    with pytest.raises(v.InvalidTraceError):
        encode_trace(trace)
    with pytest.raises(v.InvalidTraceError):
        Feeder(trace)
    with pytest.raises(v.InvalidTraceError):
        run_simulation([trace], SimConfig(topology=Topology(TopologyKind.TORUS_2D, 1, 1, 62e9, 62e9)))


def test_only_a_clean_check_is_remembered():
    never_checked = Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"runtime": -1})),))
    _refused_everywhere(never_checked)

    failed = Trace(0, (comp(1, [99]),))
    assert not v.validate_trace(failed).ok
    _refused_everywhere(failed)  # checked, with violations

    good = Trace(0, (comp(1),))
    assert v.validate_trace(good).ok
    _refused_everywhere(dataclasses.replace(good, nodes=good.nodes + (comp(2, [99]),)))
    assert v.validate_trace(good).ok


def test_the_mark_leaves_equality_hash_repr_and_bytes_alone():
    trace = random_valid_trace(random.Random(11), max_nodes=60)
    twin = dataclasses.replace(trace)
    before = (repr(trace), hash(trace), trace_to_json(trace))
    assert v.validate_trace(trace).ok
    assert trace == twin and (repr(trace), hash(trace), trace_to_json(trace)) == before
    assert (repr(twin), hash(twin), trace_to_json(twin)) == before
    assert vars(trace).keys() - vars(twin).keys() == {"_passed_validation"}  # replace starts unmarked


_I, _S, _F = AttributeKind.INT, AttributeKind.STRING, AttributeKind.FLOAT
# Required attributes of each comm node type, with a strategy for a legal value.
_REQUIRED = {
    NodeType.COMM_COLL: {
        "comm_type": (_S, st.sampled_from([ct.value for ct in CommType if ct not in (CommType.SEND, CommType.RECV)])),
        "comm_size": (_I, st.integers(0, 4096)),
        "comm_group": (_S, st.sampled_from(["g", "h"])),
    },
    NodeType.COMM_SEND: {"comm_size": (_I, st.integers(0, 4096)), "comm_peer": (_I, st.integers(0, 4))},
    NodeType.COMM_RECV: {"comm_size": (_I, st.integers(0, 4096)), "comm_peer": (_I, st.integers(0, 4))},
}
# Each flaw the strategy may inject; the property never assumes which ones validation reports.
_FLAWS = ("wrong-kind", "missing-comm", "dangling-parent", "duplicate-parent", "bad-type", "non-int-id")


@st.composite
def _gate_traces(draw):
    """A trace built valid, then given any subset of ``_FLAWS``, each at a drawn node."""
    nodes = []
    for node_id in range(1, draw(st.integers(1, 5)) + 1):
        node_type = draw(st.sampled_from(list(NodeType)))
        attrs = [(name, kind, draw(values)) for name, (kind, values) in _REQUIRED.get(node_type, {}).items()]
        if node_type is not NodeType.INVALID and draw(st.booleans()):
            attrs.append(("runtime", _I, draw(st.integers(0, 50))))
        if node_type in (NodeType.COMM_SEND, NodeType.COMM_RECV) and draw(st.booleans()):
            attrs.append(("comm_tag", _I, draw(st.integers(0, 3))))
        parents = draw(st.sets(st.integers(1, node_id - 1))) if node_id > 1 else set()
        nodes.append([node_id, node_type, sorted(parents), attrs])
    for flaw in draw(st.sets(st.sampled_from(_FLAWS))):
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        if flaw == "wrong-kind":
            name = draw(st.sampled_from(["runtime", "comm_size", "comm_peer", "comm_tag", "comm_type", "comm_group"]))
            kind, value = draw(st.sampled_from([(_S, "5"), (_F, 5.0), (_I, True), (_I, "x"), (_I, 3)]))
            node[3] = [a for a in node[3] if a[0] != name] + [(name, kind, value)]
        elif flaw == "missing-comm":
            if node[1] not in _REQUIRED:
                node[1] = NodeType.COMM_COLL
            node[3] = [a for a in node[3] if a[0] != draw(st.sampled_from(sorted(_REQUIRED[node[1]])))]
        elif flaw == "dangling-parent":
            node[2].append(99)
        elif flaw == "duplicate-parent":
            node[2] += [node[2][0] if node[2] else 99] * 2
        elif flaw == "bad-type":
            node[1] = draw(st.sampled_from(["COMP", 3, None]))
        else:
            node[0] = draw(st.sampled_from([str(node[0]), float(node[0]), True]))
    return Trace(0, tuple(
        ETNode(node_id, f"n{i}", node_type, tuple(parents), tuple(Attribute(*a) for a in attrs))
        for i, (node_id, node_type, parents, attrs) in enumerate(nodes)
    ))


def _refused(call) -> bool:
    """True when ``call`` raises InvalidTraceError; any other exception propagates."""
    try:
        call()
    except v.InvalidTraceError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(trace=_gate_traces())
def test_every_consumer_refuses_exactly_what_validation_refuses(trace, tmp_path_factory):
    ok = v.validate_trace(dataclasses.replace(trace)).ok  # a copy: the consumers see an unmarked trace
    path = tmp_path_factory.getbasetemp() / "gate.0.et"
    path.unlink(missing_ok=True)
    config = SimConfig(topology=Topology(TopologyKind.TORUS_2D, 2, 2, 62e9, 62e9))

    def replay():
        try:
            run_simulation([trace], config, collect_timeline=False)
        except (DeadlockError, ValueError) as exc:  # a valid trace may deadlock or lack a timing input
            if not ok or isinstance(exc, v.InvalidTraceError):
                raise

    for call in (
        lambda: encode_trace(trace, FORMAT_JSON),
        lambda: encode_trace(trace, FORMAT_BINARY),
        lambda: write_trace(trace, path),
        lambda: Feeder(trace),
        replay,
    ):
        assert _refused(call) is not ok
    assert path.exists() is ok


def _comm(node_id, node_type, *attrs):
    return ETNode(node_id, f"c{node_id}", node_type, attributes=tuple(Attribute(*a) for a in attrs))


# Comm nodes whose attributes repeat, carry the wrong kind or miss: the full
# report, recorded before the comm contract read the attribute scan's map.
COMM_CONTRACT_REPORT = """\
[missing-required-attribute] node 1: COMM_COLL node lacks 'comm_type'
[missing-required-attribute] node 1: COMM_COLL node lacks 'comm_size'
[missing-required-attribute] node 1: COMM_COLL node lacks 'comm_group'
[wrong-attribute-kind] node 2: attribute 'comm_type' must be STRING, got INT
[duplicate-attribute] node 2: attribute 'comm_type' appears twice
[missing-required-attribute] node 2: COMM_COLL node lacks 'comm_group'
[duplicate-attribute] node 3: attribute 'comm_type' appears twice
[missing-required-attribute] node 3: COMM_COLL node lacks 'comm_size'
[bad-comm-type] node 3: comm_type 'SEND' is point-to-point, node is COMM_COLL
[kind-value-mismatch] node 4: attribute 'comm_type': value 7 does not match kind STRING
[missing-required-attribute] node 4: COMM_SEND node lacks 'comm_peer'
[bad-comm-type] node 5: COMM_RECV node claims comm_type 'SEND'
[not-a-string] node 6: attribute name 5 is not a string
[wrong-attribute-kind] node 6: attribute 'comm_peer' must be INT, got STRING
[missing-required-attribute] node 6: COMM_RECV node lacks 'comm_size'
[bad-comm-type] node 6: unknown comm_type 'BOGUS'
[negative-size] node 7: comm_size -1 is negative
[duplicate-attribute] node 7: attribute 'comm_size' appears twice
[missing-required-attribute] node 7: COMM_SEND node lacks 'comm_peer'
[bad-comm-type] node 7: COMM_SEND node claims comm_type 'ALL_GATHER'
[wrong-attribute-kind] node 8: attribute 'comm_group' must be STRING, got INT
[wrong-attribute-kind] node 8: attribute 'comm_size' must be INT, got STRING"""


def test_comm_contract_report_is_pinned():
    I, S = AttributeKind.INT, AttributeKind.STRING
    trace = Trace(0, (
        _comm(1, NodeType.COMM_COLL),
        _comm(2, NodeType.COMM_COLL, ("comm_type", I, 1), ("comm_type", S, "ALL_REDUCE"), ("comm_size", I, 8)),
        _comm(3, NodeType.COMM_COLL, ("comm_type", S, "SEND"), ("comm_type", S, "ALL_REDUCE"), ("comm_group", S, "g")),
        _comm(4, NodeType.COMM_SEND, ("comm_type", S, 7), ("comm_size", I, 8)),
        _comm(5, NodeType.COMM_RECV, ("comm_type", S, "SEND"), ("comm_size", I, 8), ("comm_peer", I, 1)),
        _comm(6, NodeType.COMM_RECV, ("comm_type", S, "BOGUS"), (5, I, 1), ("comm_peer", S, "x")),
        _comm(7, NodeType.COMM_SEND, ("comm_size", I, -1), ("comm_size", I, 8), ("comm_type", S, "ALL_GATHER")),
        _comm(8, NodeType.COMM_COLL, ("comm_group", I, 3), ("comm_type", S, "ALL_TO_ALL"), ("comm_size", S, "8")),
        _comm(9, NodeType.COMP, ("comm_type", S, "BOGUS")),
    ))
    assert str(v.validate_trace(trace)) == COMM_CONTRACT_REPORT


def test_an_empty_report_reads_valid():
    assert str(v.ValidationReport(())) == "valid"
    assert str(v.validate_trace(Trace(0, ()))) == "valid"


def test_a_shared_bad_attribute_is_reported_on_every_node_that_carries_it():
    # Validation checks each distinct Attribute object once per call for what does not
    # depend on its node; it may skip only attributes that passed, never a bad one.
    kind, group = Attribute("comm_type", AttributeKind.STRING, "ALL_REDUCE"), Attribute("comm_group", AttributeKind.STRING, "dp")

    def trace(size):
        nodes = [ETNode(i, f"c{i}", NodeType.COMM_COLL, (i - 1,) if i > 1 else (), (kind, size(), group))
                 for i in range(1, 5)]
        # node 5 carries the shared clean group twice: its duplicate is still reported
        nodes.append(ETNode(5, "c5", NodeType.COMM_COLL, (4,), (kind, size(), group, group)))
        return Trace(0, nodes)

    bad = Attribute("comm_size", AttributeKind.INT, -8)
    shared = v.validate_trace(trace(lambda: bad))
    copies = v.validate_trace(trace(lambda: Attribute("comm_size", AttributeKind.INT, -8)))
    assert shared == copies
    assert [(x.code, x.node_id) for x in shared.violations] == [
        (v.NEGATIVE_SIZE, 1), (v.NEGATIVE_SIZE, 2), (v.NEGATIVE_SIZE, 3), (v.NEGATIVE_SIZE, 4),
        (v.NEGATIVE_SIZE, 5), (v.DUPLICATE_ATTRIBUTE, 5),
    ]
    clean = v.validate_trace(trace(lambda: Attribute("comm_size", AttributeKind.INT, 8)))
    assert [(x.code, x.node_id) for x in clean.violations] == [(v.DUPLICATE_ATTRIBUTE, 5)]

