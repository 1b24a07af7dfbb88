import pytest

from ettrace.builder import DependencyCycleError, TraceBuilder
from ettrace.schema import AttributeKind, CommType, NodeType, get_attr
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
