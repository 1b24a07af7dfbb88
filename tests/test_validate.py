import pytest

from ettrace.schema import Attribute, AttributeKind, ETNode, NodeType, Trace, make_attributes
from ettrace import validate as v

from conftest import random_valid_trace


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


def test_negative_size():
    assert v.NEGATIVE_SIZE in codes(Trace(0, (coll(1, comm_size=-1),)))
    assert v.NEGATIVE_SIZE in codes(Trace(0, (comp(1, runtime=-5),)))
    for name in ("tensor_size", "num_ops"):
        node = ETNode(1, "n", NodeType.MEM_LOAD, attributes=make_attributes({name: -1}))
        assert codes(Trace(0, (node,))) == {v.NEGATIVE_SIZE}, name
    assert v.validate_trace(Trace(0, (comp(1, runtime=0),))).ok


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
