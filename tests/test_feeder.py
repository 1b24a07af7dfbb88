import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from ettrace import simulator
from ettrace.costmodel import Topology, TopologyKind
from ettrace.feeder import Feeder, FeederError
from ettrace.schema import ETNode, NodeType, Trace, make_attributes
from ettrace.validate import InvalidTraceError

from conftest import invalid_chain_trace, random_dag_parents
from oracles import all_topological_orders, is_topological


def comp(node_id, parents=()):
    return ETNode(node_id, f"n{node_id}", NodeType.COMP, parents=tuple(parents),
                  attributes=make_attributes({"runtime": 1}))


def invalid(node_id, parents=()):
    return ETNode(node_id, f"x{node_id}", NodeType.INVALID, parents=tuple(parents))


def diamond():
    # 1 -> {2, 3} -> 4
    return Trace(0, (comp(1), comp(2, [1]), comp(3, [1]), comp(4, [2, 3])))


def trace_from_parents(parents_map, node_type=NodeType.COMP):
    nodes = tuple(
        ETNode(i, f"n{i}", node_type, parents=tuple(sorted(ps)),
               attributes=make_attributes({"runtime": 1}) if node_type is NodeType.COMP else ())
        for i, ps in sorted(parents_map.items())
    )
    return Trace(0, nodes)


def drain(feeder, rng=None):
    """Issue/complete until empty; random choice via push-backs when rng given."""
    order = []
    while feeder.pending_count():
        assert feeder.has_nodes_to_issue()
        if rng is not None:
            # rotate the queue a random amount to pick a non-head candidate
            for _ in range(rng.randrange(0, len(feeder.queued_ids) + 1)):
                node = feeder.get_next_issuable_node()
                feeder.push_back_issuable_node(node.id)
        node = feeder.get_next_issuable_node()
        order.append(node.id)
        feeder.free_children_nodes(node.id)
    return order


def test_diamond_free_sequence():
    f = Feeder(diamond())
    assert f.queued_ids == (1,)
    n = f.get_next_issuable_node()
    assert n.id == 1
    assert f.free_children_nodes(1) == [2, 3]
    assert f.get_next_issuable_node().id == 2
    assert f.free_children_nodes(2) == []
    assert f.get_next_issuable_node().id == 3
    assert f.free_children_nodes(3) == [4]


def test_free_twice_is_an_error():
    f = Feeder(diamond())
    f.get_next_issuable_node()
    f.free_children_nodes(1)
    with pytest.raises(FeederError, match="twice"):
        f.free_children_nodes(1)


def test_free_without_issue_is_an_error():
    f = Feeder(diamond())
    with pytest.raises(FeederError, match="never issued"):
        f.free_children_nodes(1)


def test_free_unknown_node_is_an_error():
    f = Feeder(diamond())
    with pytest.raises(FeederError, match="unknown"):
        f.free_children_nodes(42)


def test_has_nodes_to_issue_reflects_queue_only():
    f = Feeder(diamond())
    assert f.has_nodes_to_issue()
    f.get_next_issuable_node()  # 1 in flight, nothing else ready
    assert not f.has_nodes_to_issue()
    assert f.pending_count() == 4  # not drained, just nothing issuable
    f.free_children_nodes(1)
    assert f.has_nodes_to_issue()


def test_chain_initial_queue():
    chain = Trace(0, (comp(1), comp(2, [1]), comp(3, [2])))
    f = Feeder(chain)
    assert f.queued_ids == (1,)


def test_get_next_returns_none_when_empty():
    f = Feeder(diamond())
    f.get_next_issuable_node()
    assert f.get_next_issuable_node() is None


def test_push_back_returns_node_to_tail():
    f = Feeder(diamond())
    f.get_next_issuable_node()
    f.free_children_nodes(1)  # queue now (2, 3)
    n = f.get_next_issuable_node()
    assert n.id == 2
    f.push_back_issuable_node(2)
    assert f.queued_ids == (3, 2)
    assert f.get_next_issuable_node().id == 3


def test_push_back_requires_issued():
    f = Feeder(diamond())
    with pytest.raises(FeederError, match="not currently issued"):
        f.push_back_issuable_node(1)
    with pytest.raises(FeederError, match="unknown"):
        f.push_back_issuable_node(42)


def test_lookup_node():
    f = Feeder(diamond())
    assert f.lookup_node(3).name == "n3"
    with pytest.raises(FeederError):
        f.lookup_node(9)


def test_remove_node_refuses_live_children():
    f = Feeder(diamond())
    with pytest.raises(FeederError, match="live children"):
        f.remove_node(1)
    # leaf with no children can go
    f.remove_node(4)
    assert 4 not in f.node_ids()
    # a queued node leaves the ready queue too
    f = Feeder(Trace(0, (comp(1), comp(2))))
    f.remove_node(1)
    assert f.queued_ids == (2,) and f.node_ids() == (2,)


def test_removing_a_leaf_unlinks_it_from_its_parents():
    f = Feeder(diamond())
    f.remove_node(4)
    f.remove_node(2)  # its one child is gone
    assert f.node_ids() == (1, 3)
    assert drain(f) == [1, 3]


def test_freeing_the_parent_of_a_removed_node_frees_nothing():
    f = Feeder(Trace(0, (comp(1), comp(2, [1]))))
    f.remove_node(2)
    f.get_next_issuable_node()
    assert f.free_children_nodes(1) == []
    assert f.pending_count() == 0


def test_invalid_nodes_are_transparent():
    # 1(INVALID) -> 2(COMP) -> 3(INVALID) -> 4(COMP)
    trace = Trace(0, (invalid(1), comp(2, [1]), invalid(3, [2]), comp(4, [3])))
    f = Feeder(trace)
    assert f.queued_ids == (2,)  # 1 auto-completed
    f.get_next_issuable_node()
    assert f.free_children_nodes(2) == [4]  # 3 collapsed transparently
    f.get_next_issuable_node()
    f.free_children_nodes(4)
    assert f.pending_count() == 0


def test_invalid_chain_collapses_at_load():
    trace = Trace(0, (invalid(1), invalid(2, [1]), comp(3, [2])))
    assert Feeder(trace).queued_ids == (3,)


def test_all_invalid_trace_drains_immediately():
    trace = Trace(0, (invalid(1), invalid(2, [1])))
    f = Feeder(trace)
    assert not f.has_nodes_to_issue()
    assert f.pending_count() == 0


def test_load_accepts_parents_with_higher_ids():
    # 2 depends on 3; ids are not topologically sorted
    trace = Trace(0, (comp(2, [3]), comp(3)))
    f = Feeder(trace)
    assert f.queued_ids == (3,)
    f.get_next_issuable_node()
    assert f.free_children_nodes(3) == [2]


def test_load_validates_by_default():
    bad = Trace(0, (comp(1, [9]),))
    with pytest.raises(InvalidTraceError):
        Feeder(bad)
    naked_coll = Trace(0, (ETNode(1, "c", NodeType.COMM_COLL),))
    with pytest.raises(InvalidTraceError):
        Feeder(naked_coll)


def test_incremental_add_node():
    f = Feeder()
    f.add_node(comp(1))
    f.add_node(comp(2, [1]))
    with pytest.raises(FeederError, match="unknown parents"):
        f.add_node(comp(5, [4]))
    with pytest.raises(FeederError, match="already present"):
        f.add_node(comp(1))
    assert f.queued_ids == (1,)
    # a node whose parents already completed is ready immediately
    f.get_next_issuable_node()
    f.free_children_nodes(1)
    f.add_node(comp(3, [1]))
    assert set(f.queued_ids) == {2, 3}


def test_add_node_onto_loaded_nodes():
    f = Feeder(diamond())
    f.add_node(comp(5, [1, 4]))
    f.add_node(comp(6, [1]))
    assert drain(f) == [1, 2, 3, 6, 4, 5]


def test_incremental_invalid_auto_completes():
    f = Feeder()
    f.add_node(invalid(1))
    assert not f.has_nodes_to_issue()
    f.add_node(comp(2, [1]))
    assert f.queued_ids == (2,)


def test_drain_order_is_topological_for_random_dags(rng):
    for _ in range(200):
        parents_map = random_dag_parents(rng, rng.randint(1, 12))
        trace = trace_from_parents(parents_map)
        feeder = Feeder(trace)
        order = drain(feeder, rng if rng.random() < 0.5 else None)
        assert len(order) == len(parents_map)
        assert is_topological(parents_map, order)


def test_total_freed_equals_node_count(rng):
    for _ in range(200):
        parents_map = random_dag_parents(rng, rng.randint(1, 10))
        feeder = Feeder(trace_from_parents(parents_map))
        freed_total = len(feeder.queued_ids)
        while feeder.has_nodes_to_issue():
            node = feeder.get_next_issuable_node()
            freed_total += len(feeder.free_children_nodes(node.id))
        assert freed_total == len(parents_map)
        assert feeder.pending_count() == 0


def test_exhaustive_small_dag_orders_match_topological_set(rng):
    """Feeder drain orders over all issue choices == all topological orders."""
    for _ in range(40):
        n = rng.randint(1, 5)
        parents_map = random_dag_parents(rng, n, edge_prob=0.5)
        trace = trace_from_parents(parents_map)

        def explore(feeder, prefix, found):
            ready = list(feeder.queued_ids)
            if not ready:
                assert feeder.pending_count() == 0, "stuck with nothing ready"
                found.add(tuple(prefix))
                return
            for choice in ready:
                f2 = Feeder(trace)
                for done in prefix:
                    # replay prefix: rotate until `done` is at the head
                    node = f2.get_next_issuable_node()
                    while node.id != done:
                        f2.push_back_issuable_node(node.id)
                        node = f2.get_next_issuable_node()
                    f2.free_children_nodes(done)
                node = f2.get_next_issuable_node()
                while node.id != choice:
                    f2.push_back_issuable_node(node.id)
                    node = f2.get_next_issuable_node()
                f2.free_children_nodes(choice)
                explore(f2, prefix + [choice], found)

        found: set = set()
        explore(Feeder(trace), [], found)
        assert found == all_topological_orders(parents_map)


def mixed_random_trace(rng, n_nodes):
    """A random DAG whose nodes are COMP or INVALID, about half each."""
    parents_map = random_dag_parents(rng, n_nodes, edge_prob=0.3)
    return Trace(0, tuple(
        (comp if rng.random() < 0.5 else invalid)(i, sorted(parents_map[i])) for i in sorted(parents_map)
    ))


def _load_and_drain_log(rng):
    for _ in range(60):
        feeder = Feeder(mixed_random_trace(rng, rng.randint(1, 30)))
        yield f"load {feeder.queued_ids}"
        while feeder.has_nodes_to_issue():
            node_id = feeder.get_next_issuable_node().id
            yield f"free {node_id} {feeder.free_children_nodes(node_id)}"


def _add_and_drain_log(rng):
    for _ in range(60):
        nodes = list(mixed_random_trace(rng, rng.randint(1, 30)).nodes)
        feeder = Feeder()
        while nodes or feeder.has_nodes_to_issue():
            if nodes and (not feeder.has_nodes_to_issue() or rng.random() < 0.5):
                feeder.add_node(nodes.pop(0))
                yield f"add {feeder.queued_ids}"
            else:
                node_id = feeder.get_next_issuable_node().id
                yield f"free {node_id} {feeder.free_children_nodes(node_id)}"


# sha256 of the FIFO release log on seeded COMP/INVALID DAGs, recorded before
# the feeder released dependencies iteratively; the digests must never move.
RELEASE_LOG_SHA256 = {
    "load": (_load_and_drain_log, "7299dfd34ca826f183ae7bfe42910c2e0344f134416719d0f33498b8ffdcd7e2"),
    "add_node": (_add_and_drain_log, "7c8f38d35751bccb72295ca832cb19aae150600e7928afaf3f406af10d03d8c8"),
}


@pytest.mark.parametrize("path", sorted(RELEASE_LOG_SHA256))
def test_release_order_matches_pinned_digest(path):
    log, digest = RELEASE_LOG_SHA256[path]
    assert hashlib.sha256("\n".join(log(random.Random(0xFEED))).encode()).hexdigest() == digest


def test_long_invalid_chain_releases_without_recursion():
    trace = invalid_chain_trace(5000)
    feeder = Feeder(trace)
    head = feeder.get_next_issuable_node()
    assert [feeder.lookup_node(i).name for i in feeder.free_children_nodes(head.id)] == ["tail"]
    assert feeder.pending_count() == 1


@st.composite
def _traces_with_invalid_chains(draw):
    """A valid trace of COMP, MEM_LOAD and INVALID nodes over sparse ids, listed
    in shuffled order; a node often hangs below the one before, so INVALID
    nodes form chains, at the sources too."""
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=24))
    nodes = []
    for i, node_id in enumerate(ids):
        node_type = draw(st.sampled_from([NodeType.INVALID, NodeType.INVALID, NodeType.COMP, NodeType.MEM_LOAD]))
        if i and draw(st.booleans()):
            parents = [ids[i - 1]]
        else:
            parents = draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=3)) if i else []
        attrs = {} if node_type is NodeType.INVALID else {"runtime": 1}
        nodes.append(ETNode(node_id, f"n{node_id}", node_type, tuple(parents), make_attributes(attrs)))
    return Trace(0, tuple(draw(st.permutations(nodes))))


@settings(max_examples=200, deadline=None)
@given(_traces_with_invalid_chains())
def test_feeder_queue_starts_as_replays_class_queues_in_id_order(trace):
    config = simulator.SimConfig(topology=Topology(TopologyKind.TORUS_2D, 1, 1, 1e9, 1e9))
    npu = simulator._lower(trace, config, {}, {})
    replay_ready = sorted(npu.ids[pos] for queue in npu.queues for pos in queue)
    assert Feeder(trace).queued_ids == tuple(replay_ready)


def test_completed_ids_are_the_freed_nodes():
    feeder = Feeder(Trace(0, (
        ETNode(1, "a", NodeType.COMP, attributes=make_attributes({"runtime": 1})),
        ETNode(2, "b", NodeType.COMP, (1,), make_attributes({"runtime": 1})),
    )))
    assert feeder.completed_ids == frozenset()
    node = feeder.get_next_issuable_node()
    assert feeder.completed_ids == frozenset()
    feeder.free_children_nodes(node.id)
    assert feeder.completed_ids == frozenset({1})
