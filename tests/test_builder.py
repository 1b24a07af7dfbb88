import math

import pytest

from ettrace.builder import DependencyCycleError, TraceBuilder
from ettrace.schema import AttributeKind, CommType, NodeType, get_attr, make_attributes
from ettrace.validate import InvalidTraceError
from ettrace.workloads import Parallelism, WorkloadSpec, generate_workload, preset_spec


def test_ids_are_fresh_and_sequential():
    b = TraceBuilder(0)
    first = b.add_node(NodeType.COMP, "a", {"runtime": 1})
    second = b.add_node(NodeType.COMP, "b", {"runtime": 1}, parents=[first])
    assert (first, second) == (1, 2)
    assert len(b) == 2


def test_add_node_accepts_type_names():
    b = TraceBuilder(0)
    nid = b.add_node("MEM_LOAD", "w", {"tensor_size": 64})
    assert b.build().node(nid).type is NodeType.MEM_LOAD
    with pytest.raises(KeyError):
        b.add_node("NOT_A_TYPE", "x")


def test_build_produces_valid_sorted_trace():
    b = TraceBuilder(npu_id=7)
    a = b.comp("a", 3)
    c = b.coll("c", CommType.ALL_REDUCE, 1024, "dp", parents=[a])
    trace = b.build()
    assert trace.npu_id == 7
    assert [n.id for n in trace.nodes] == [a, c]
    assert trace.node(a).type is NodeType.COMP
    assert get_attr(trace.node(a), "runtime") == 3
    coll_node = trace.node(c)
    assert get_attr(coll_node, "comm_type") == "ALL_REDUCE"
    assert get_attr(coll_node, "comm_size") == 1024
    assert get_attr(coll_node, "comm_group") == "dp"
    assert coll_node.parents == (a,)


def test_send_recv_helpers():
    b = TraceBuilder(0)
    s = b.send("s", 64, comm_peer=1, tag=5)
    r = b.recv("r", 64, comm_peer=1)
    trace = b.build()
    assert trace.node(s).type is NodeType.COMM_SEND
    assert get_attr(trace.node(s), "comm_tag") == 5
    assert trace.node(r).type is NodeType.COMM_RECV
    assert get_attr(trace.node(r), "comm_tag") is None
    assert get_attr(trace.node(r), "comm_peer") == 1


def test_assign_dep_is_idempotent():
    b = TraceBuilder(0)
    a = b.comp("a", 1)
    c = b.comp("c", 1)
    b.assign_dep(a, c)
    b.assign_dep(a, c)
    assert b.build().node(c).parents == (a,)


def test_assign_dep_rejects_cycles_eagerly():
    b = TraceBuilder(0)
    a = b.comp("a", 1)
    c = b.comp("c", 1, parents=[a])
    d = b.comp("d", 1, parents=[c])
    with pytest.raises(DependencyCycleError):
        b.assign_dep(d, a)
    with pytest.raises(DependencyCycleError):
        b.assign_dep(a, a)


def test_edges_into_fresh_nodes_never_walk_the_graph(monkeypatch):
    def walk(*args):
        raise AssertionError("_reaches called")

    monkeypatch.setattr(TraceBuilder, "_reaches", walk)
    b = TraceBuilder(0)
    prev = b.comp("c0", 1)
    for i in range(1, 50):
        prev = b.comp(f"c{i}", 1, parents=[prev])
    late = b.comp("late", 1)
    b.assign_dep(prev, late)  # the child has no children yet
    generate_workload(WorkloadSpec(npus=4, parallelism=Parallelism.PIPELINE, microbatches=3))
    generate_workload(preset_spec("dlrm", 4))


def test_assign_dep_between_existing_nodes_still_checks_cycles():
    b = TraceBuilder(0)
    a = b.comp("a", 1)
    c = b.comp("c", 1)
    d = b.comp("d", 1, parents=[c])
    b.assign_dep(a, c)  # c has a child, a is no descendant of c: fine
    with pytest.raises(DependencyCycleError):
        b.assign_dep(d, a)  # a -> c -> d -> a
    assert b.build().node(c).parents == (a,)


def test_assign_dep_unknown_nodes():
    b = TraceBuilder(0)
    a = b.comp("a", 1)
    with pytest.raises(KeyError):
        b.assign_dep(a, 99)
    with pytest.raises(KeyError):
        b.assign_dep(99, a)


def test_set_attr_replaces_and_adds():
    b = TraceBuilder(0)
    a = b.comp("a", 1)
    b.set_attr(a, "runtime", 9)
    b.set_attr(a, "note", "hello")
    node = b.build().node(a)
    assert get_attr(node, "runtime") == 9
    attr = node.attribute("note")
    assert attr.kind is AttributeKind.STRING and attr.value == "hello"


def test_build_validates_by_default():
    b = TraceBuilder(0)
    b.add_node(NodeType.COMM_COLL, "incomplete")  # missing comm_* attrs
    with pytest.raises(InvalidTraceError):
        b.build()


def test_first_id_offset():
    b = TraceBuilder(0, first_id=100)
    assert b.comp("a", 1) == 100


def test_builder_shares_equal_attributes_and_keeps_kinds_apart():
    b = TraceBuilder(0)
    a = b.coll("a", "ALL_REDUCE", 64, "g0")
    c = b.coll("c", CommType.ALL_REDUCE, 64, "g0", parents=[a])
    s = b.send("s", 64, 1, tag=3)
    r = b.recv("r", 64, 1, tag=3)
    x = b.add_node(NodeType.COMP, "x", {"runtime": 5, "w": 1, "f": 2.5, "z": 0.0})
    y = b.add_node(NodeType.COMP, "y", {"runtime": 5, "w": 1.0, "f": 2.5, "z": -0.0})
    b.set_attr(y, "note", "n")
    b.set_attr(x, "note", "n")
    nodes = {node.id: node for node in b.build().nodes}
    for left, right in zip(nodes[a].attributes, nodes[c].attributes, strict=True):
        assert left is right
    for left, right in zip(nodes[s].attributes, nodes[r].attributes, strict=True):
        assert left is right
    assert nodes[s].attribute("comm_size") is nodes[a].attribute("comm_size")
    x_attrs, y_attrs = nodes[x].attributes, nodes[y].attributes
    assert [left is right for left, right in zip(x_attrs, y_attrs, strict=True)] == [True, False, True, False, True]
    assert (x_attrs[1].kind, y_attrs[1].kind) == (AttributeKind.INT, AttributeKind.FLOAT)
    assert (math.copysign(1, x_attrs[3].value), math.copysign(1, y_attrs[3].value)) == (1, -1)


def test_builder_refuses_a_bool_after_sharing_an_equal_int():
    b = TraceBuilder(0)
    b.add_node(NodeType.COMP, "one", {"runtime": 1, "flag": 1})
    with pytest.raises(TypeError) as refused:
        b.add_node(NodeType.COMP, "true", {"runtime": 1, "flag": True})
    with pytest.raises(TypeError) as inferred:
        make_attributes({"flag": True})
    assert str(refused.value) == str(inferred.value) == "attribute 'flag': bool has no attribute kind"


def test_cycle_walk_visits_a_diamond_once_per_node():
    b = TraceBuilder(0)
    top = b.comp("top", 1)
    left, right = b.comp("left", 1, parents=[top]), b.comp("right", 1, parents=[top])
    sink = b.comp("sink", 1, parents=[left, right])
    x = b.comp("x", 1)
    b.comp("y", 1, parents=[x])
    b.assign_dep(sink, x)  # x has a child, so the walk from sink meets top twice
    with pytest.raises(DependencyCycleError):
        b.assign_dep(x, top)  # top -> ... -> sink -> x -> top
    assert b.build().node(x).parents == (sink,)
