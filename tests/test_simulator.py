import gc
import hashlib
import itertools
import math
import random
import re
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from ettrace import codec, simulator
from ettrace.cli import main
from ettrace.builder import TraceBuilder
from ettrace.costmodel import Topology, TopologyKind, all_reduce_time, p2p_time, parse_topology
from ettrace.feeder import Feeder
from ettrace.schema import Attribute, AttributeKind, CommType, ETNode, NodeType, Trace, make_attributes
from ettrace.simulator import (
    DeadlockError,
    SimConfig,
    TimingMode,
    compute_breakdown,
    run_simulation,
    sweep_bandwidth,
    sweep_npus,
    sweep_rows_to_csv,
)
from ettrace import validate as v
from ettrace.validate import InvalidTraceError, validate_workload
from ettrace.viz import node_type_lookup, parse_timeline_csv, timeline_to_chrome_trace, type_lanes
from ettrace.workloads import Parallelism, WorkloadSpec, generate_workload, preset_spec

from conftest import invalid_chain_trace, random_dag_parents
from oracles import exposed_time_oracle, replay_oracle

ONE = Topology(TopologyKind.TORUS_2D, 1, 1, 62e9, 62e9)
PAIR = Topology(TopologyKind.TORUS_2D, 2, 1, 1e9, 1e9)


def cfg(topo=ONE, **kw):
    return SimConfig(topology=topo, **kw)


def chain_comp(n, runtime=5):
    b = TraceBuilder(0)
    prev = None
    for i in range(n):
        prev = b.comp(f"c{i}", runtime, parents=[prev] if prev is not None else [])
    return b.build()


def test_two_comp_chain_makespan_and_csv():
    result = run_simulation([chain_comp(2, runtime=5)], cfg())
    assert result.makespan == 10
    csv = result.timeline_csv()
    lines = csv.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "issue,[0],[0],[1],[c0]"
    assert lines[1] == "callback,[0],[5],[1],[c0]"
    assert lines[2] == "issue,[0],[5],[2],[c1]"
    assert lines[3] == "callback,[0],[10],[2],[c1]"
    # the CSV parses back to the same rows
    assert parse_timeline_csv(csv) == result.timeline


def test_callbacks_precede_issues_at_same_cycle():
    result = run_simulation([chain_comp(3, runtime=4)], cfg())
    events = [(r.event, r.cycle) for r in result.timeline]
    assert events == [
        ("issue", 0), ("callback", 4), ("issue", 4),
        ("callback", 8), ("issue", 8), ("callback", 12),
    ]


def overlap_traces(serial):
    b = TraceBuilder(0)
    comp = b.comp("comp", 10)
    b.coll("comm", CommType.ALL_REDUCE, 1024, "g",
           parents=[comp] if serial else [], extra={"runtime": 6})
    return [b.build()]


def test_compute_comm_overlap_hides_comm():
    config = cfg(comm_timing=TimingMode.FROM_TRACE)
    result = run_simulation(overlap_traces(serial=False), config)
    assert result.makespan == 10
    stats = result.per_npu[0]
    assert stats.compute_busy == 10
    assert stats.comm_busy == 6
    assert stats.exposed_comm == 0


def test_serial_comm_is_fully_exposed():
    config = cfg(comm_timing=TimingMode.FROM_TRACE)
    result = run_simulation(overlap_traces(serial=True), config)
    assert result.makespan == 16
    stats = result.per_npu[0]
    assert stats.exposed_comm == 6
    assert stats.comm_busy == 6


def test_partial_overlap_matches_interval_oracle():
    # the single compute unit serializes the COMPs: [0,4) then [4,11);
    # comm chained on the first occupies [4, 10) and is fully hidden
    b = TraceBuilder(0)
    lead = b.comp("lead", 4)
    b.comp("long", 7, parents=[])
    b.coll("comm", CommType.ALL_REDUCE, 64, "g", parents=[lead], extra={"runtime": 6})
    result = run_simulation([b.build()], cfg(comm_timing=TimingMode.FROM_TRACE))
    stats = result.per_npu[0]
    want = exposed_time_oracle(comm=[(4, 10)], compute=[(0, 4), (4, 11)])
    assert stats.exposed_comm == want == 0
    # shorter trailing compute: comm [4,14) vs compute [0,6) leaves 8 exposed
    b = TraceBuilder(0)
    lead = b.comp("lead", 4)
    b.comp("long", 2, parents=[])
    b.coll("comm", CommType.ALL_REDUCE, 64, "g", parents=[lead], extra={"runtime": 10})
    result = run_simulation([b.build()], cfg(comm_timing=TimingMode.FROM_TRACE))
    assert result.per_npu[0].exposed_comm == exposed_time_oracle([(4, 14)], [(0, 4), (4, 6)]) == 8


def test_collective_rendezvous_waits_for_last_arrival():
    b0 = TraceBuilder(0)
    b0.coll("ar", CommType.ALL_REDUCE, 1000, "g")
    b1 = TraceBuilder(1)
    lead = b1.comp("warmup", 7)
    b1.coll("ar", CommType.ALL_REDUCE, 2000, "g", parents=[lead])
    result = run_simulation([b0.build(), b1.build()], cfg(PAIR))
    # payload is the max across members; both spans identical
    dur = math.ceil(all_reduce_time(2000, 2, 1e9) / 1e-9)
    assert result.node_spans[(0, 1)] == (7, 7 + dur)
    assert result.node_spans[(1, 2)] == (7, 7 + dur)
    assert result.makespan == 7 + dur


def test_collective_participants_are_groupwise():
    # rank 2 never uses group "g", so it must not block the rendezvous
    b0 = TraceBuilder(0)
    b0.coll("ar", CommType.ALL_REDUCE, 1000, "g")
    b1 = TraceBuilder(1)
    b1.coll("ar", CommType.ALL_REDUCE, 1000, "g")
    b2 = TraceBuilder(2)
    b2.comp("alone", 3)
    result = run_simulation(
        [b0.build(), b1.build(), b2.build()],
        cfg(Topology(TopologyKind.TORUS_2D, 3, 1, 1e9, 1e9)),
    )
    assert result.node_spans[(0, 1)][0] == 0


def test_mismatched_collective_order_deadlocks_naming_nodes():
    b0 = TraceBuilder(0)
    first = b0.coll("A", CommType.ALL_REDUCE, 64, "g")
    b0.coll("B", CommType.ALL_GATHER, 64, "g", parents=[first])
    b1 = TraceBuilder(1)
    first = b1.coll("B", CommType.ALL_GATHER, 64, "g")
    b1.coll("A", CommType.ALL_REDUCE, 64, "g", parents=[first])
    with pytest.raises(DeadlockError) as err:
        run_simulation([b0.build(), b1.build()], cfg(PAIR))
    message = str(err.value)
    assert "'A'" in message and "'B'" in message
    stuck_names = {s.name for s in err.value.stuck}
    assert stuck_names == {"A", "B"}


def test_deadlock_reports_the_collective_whose_types_disagree():
    b0 = TraceBuilder(0)
    warmup = b0.comp("warmup", 4)
    b0.coll("A", CommType.ALL_REDUCE, 64, "g", parents=[warmup])
    b1 = TraceBuilder(1)
    b1.coll("B", CommType.ALL_GATHER, 32, "g")
    with pytest.raises(DeadlockError) as err:
        run_simulation([b0.build(), b1.build()], cfg(PAIR))
    # members in arrival order: rank 1's ALL_GATHER at cycle 0, rank 0's ALL_REDUCE when it is free
    assert err.value.waiting == ((("g", 0), ((1, 1, 32, "ALL_GATHER"), (0, 2, 64, "ALL_REDUCE"))),)


def test_launches_log_each_collective_in_launch_order():
    builders = []
    for rank, peer_op in ((0, TraceBuilder.send), (1, TraceBuilder.recv)):
        b = TraceBuilder(rank)
        peer_op(b, "p2p", 10, comm_peer=1 - rank)
        warmup = b.comp("warmup", 50)
        b.coll("ar", CommType.ALL_REDUCE, 64 - 16 * rank, "g1", parents=[warmup])
        b.coll("ag", CommType.ALL_GATHER, 32, "g2")
        builders.append(b)
    result = run_simulation([b.build() for b in builders], cfg(PAIR))
    # the ALL_GATHER, listed second, launches first; the SEND/RECV pair launches but is not logged
    assert result.launches == [
        (("g2", 0), "ALL_GATHER", [(0, 4, 32, "ALL_GATHER"), (1, 4, 32, "ALL_GATHER")]),
        (("g1", 0), "ALL_REDUCE", [(0, 3, 64, "ALL_REDUCE"), (1, 3, 48, "ALL_REDUCE")]),
    ]


def test_unmatched_p2p_deadlocks():
    b0 = TraceBuilder(0)
    b0.send("lonely", 64, comm_peer=1)
    b1 = TraceBuilder(1)
    b1.comp("busy", 2)
    with pytest.raises(DeadlockError, match="lonely"):
        run_simulation([b0.build(), b1.build()], cfg(PAIR))


def test_p2p_pair_transfers_with_model_timing():
    b0 = TraceBuilder(0)
    b0.send("s", 1000, comm_peer=1)
    b1 = TraceBuilder(1)
    lead = b1.comp("warmup", 3)
    b1.recv("r", 1000, comm_peer=0, parents=[lead])
    result = run_simulation([b0.build(), b1.build()], cfg(PAIR))
    dur = math.ceil(p2p_time(1000, 0, 1, PAIR) / 1e-9)
    assert dur == 1000
    assert result.node_spans[(0, 1)] == (3, 3 + dur)
    assert result.node_spans[(1, 2)] == (3, 3 + dur)


def test_p2p_tag_pairing_matches_out_of_order_tags():
    # both sides chain their ops in the same order but tags disambiguate sizes
    b0 = TraceBuilder(0)
    s1 = b0.send("s_small", 1000, comm_peer=1, tag=1)
    b0.send("s_big", 9000, comm_peer=1, parents=[s1], tag=2)
    b1 = TraceBuilder(1)
    r1 = b1.recv("r_small", 1000, comm_peer=0, tag=1)
    b1.recv("r_big", 9000, comm_peer=0, parents=[r1], tag=2)
    result = run_simulation([b0.build(), b1.build()], cfg(PAIR))
    assert result.node_spans[(0, 1)][1] - result.node_spans[(0, 1)][0] == 1000
    assert result.node_spans[(0, 2)][1] - result.node_spans[(0, 2)][0] == 9000


def test_p2p_untagged_pairs_kth_send_with_kth_recv():
    b0 = TraceBuilder(0)
    s1 = b0.send("s1", 1000, comm_peer=1)
    b0.send("s2", 5000, comm_peer=1, parents=[s1])
    b1 = TraceBuilder(1)
    r1 = b1.recv("r1", 1000, comm_peer=0)
    b1.recv("r2", 5000, comm_peer=0, parents=[r1])
    result = run_simulation([b0.build(), b1.build()], cfg(PAIR))
    assert result.node_spans[(0, 1)] == (0, 1000)
    assert result.node_spans[(0, 2)] == (1000, 6000)


def test_invalid_nodes_are_skipped_but_preserved_in_deps():
    b = TraceBuilder(0)
    a = b.comp("a", 5)
    ghost = b.add_node(NodeType.INVALID, "ghost", parents=[a])
    b.comp("c", 5, parents=[ghost])
    result = run_simulation([b.build()], cfg())
    assert result.makespan == 10
    names = [r.node_name for r in result.timeline]
    assert "ghost" not in names
    assert len(result.timeline) == 4


def test_long_invalid_chain_replays():
    assert run_simulation([invalid_chain_trace(5000)], cfg()).makespan == 10


def test_model_compute_timing_uses_num_ops():
    b = TraceBuilder(0)
    b.add_node(NodeType.COMP, "mm", {"num_ops": 5000})
    config = cfg(
        compute_timing=TimingMode.MODEL, compute_rate=1e6, cycle_time=1e-3
    )
    result = run_simulation([b.build()], config)
    assert result.makespan == 5  # ceil(5000 ops / 1e6 ops/s / 1e-3 s/cycle)


def test_model_compute_falls_back_to_runtime():
    b = TraceBuilder(0)
    b.comp("mm", 42)
    result = run_simulation([b.build()], cfg(compute_timing=TimingMode.MODEL))
    assert result.makespan == 42


def test_memory_nodes_use_mem_bandwidth():
    b = TraceBuilder(0)
    b.add_node(NodeType.MEM_LOAD, "ld", {"tensor_size": 4096})
    result = run_simulation([b.build()], cfg(mem_bandwidth=1e12))
    assert result.makespan == math.ceil(4096 / 1e12 / 1e-9)
    assert result.per_npu[0].mem_busy == result.makespan


def test_prescan_names_offending_node():
    bad = Trace(0, (ETNode(3, "naked", NodeType.COMP),))
    with pytest.raises(ValueError, match="npu 0 node 3") as info:
        run_simulation([bad], cfg())
    assert not isinstance(info.value, InvalidTraceError)  # valid, but untimed under this config
    # what validation refuses never reaches the prescan
    sizeless = ETNode(4, "ar", NodeType.COMM_COLL, attributes=make_attributes(
        {"comm_type": "ALL_REDUCE", "comm_group": "g"}))
    with pytest.raises(InvalidTraceError) as info:
        run_simulation([Trace(0, (sizeless,))], cfg())
    assert info.value.report.codes() == {v.MISSING_REQUIRED_ATTR}
    with pytest.raises(InvalidTraceError) as info:
        run_simulation([Trace(0, (ETNode(5, "raw", "COMP"),))], cfg())
    assert info.value.report.codes() == {v.BAD_NODE_TYPE}


def test_model_compute_without_rate_or_runtime_names_node():
    # num_ops alone cannot be timed without a compute_rate; no runtime fallback
    b = TraceBuilder(0)
    b.add_node(NodeType.COMP, "mm", {"num_ops": 5000})
    with pytest.raises(ValueError, match="npu 0 node 1"):
        run_simulation([b.build()], cfg(compute_timing=TimingMode.MODEL))


def test_negative_runtime_is_refused():
    with pytest.raises(InvalidTraceError, match="negative"):
        run_simulation([chain_comp(1, runtime=-5)], cfg())


def test_ranks_outside_the_topology_are_named():
    b0 = TraceBuilder(0)
    b0.send("s", 64, 2)
    with pytest.raises(ValueError, match="npu 0 node 1: rank 2 outside topology of 2 NPUs"):
        run_simulation([b0.build()], cfg(PAIR))
    b2 = TraceBuilder(2)
    b2.coll("ar", CommType.ALL_REDUCE, 64, "g")
    with pytest.raises(ValueError, match="npu 2 node 1: rank 2 outside topology of 2 NPUs"):
        run_simulation([b2.build()], cfg(PAIR))
    # compute-only ranks and FROM_TRACE comm timing never consult the fabric
    far = TraceBuilder(7)
    far.comp("c", 5)
    far.coll("ar", CommType.ALL_REDUCE, 64, "g", extra={"runtime": 3})
    assert run_simulation([far.build()], cfg(PAIR, comm_timing=TimingMode.FROM_TRACE)).makespan == 5
    assert run_simulation([Trace(9, chain_comp(2).nodes)], cfg(PAIR)).makespan == 10


def test_collectives_match_in_issue_order_not_trace_order():
    # rank 0 lists ALL_REDUCE first, but it waits on a COMP, so rank 0 issues
    # its free ALL_GATHER first, in the same order as rank 1
    rank0 = Trace(0, (
        ETNode(1, "ar", NodeType.COMM_COLL, (3,), make_attributes(
            {"comm_type": "ALL_REDUCE", "comm_size": 64, "comm_group": "g"})),
        ETNode(2, "ag", NodeType.COMM_COLL, (), make_attributes(
            {"comm_type": "ALL_GATHER", "comm_size": 64, "comm_group": "g"})),
        ETNode(3, "warmup", NodeType.COMP, (), make_attributes({"runtime": 10})),
    ))
    b1 = TraceBuilder(1)
    first = b1.coll("ag", CommType.ALL_GATHER, 64, "g")
    b1.coll("ar", CommType.ALL_REDUCE, 64, "g", parents=[first])
    result = run_simulation([rank0, b1.build()], cfg(PAIR))
    # ALL_GATHER [0, 32), then ALL_REDUCE [32, 96)
    assert result.makespan == 96
    assert result.node_spans[(0, 1)] == result.node_spans[(1, 2)] == (32, 96)


def test_validation_refusal():
    bad = Trace(0, (ETNode(1, "n", NodeType.COMP, parents=(9,)),))
    with pytest.raises(InvalidTraceError):
        run_simulation([bad], cfg())


def test_ids_are_validated_before_traces_are_sorted():
    # sorting by npu_id first would compare "1" with 0 and raise TypeError
    with pytest.raises(InvalidTraceError, match="not-an-int"):
        run_simulation([Trace(0), Trace("1")], cfg(PAIR))


def test_replay_checks_no_trace_that_already_passed(monkeypatch):
    from ettrace import codec, synth

    checks = []
    real = v._find_cycle_members  # runs once per real check, never on a repeat
    monkeypatch.setattr(v, "_find_cycle_members", lambda nodes: checks.append(1) or real(nodes))
    traces = generate_workload(preset_spec("mlp-hybrid", 8))
    assert len(checks) == len(traces)  # once each, at build
    eight = cfg(parse_topology("torus2d:4x2", 62e9))
    checks.clear()
    run_simulation(traces, eight)  # the workload gate and every Feeder return on the mark
    synth.build_master_trace(traces)  # fit's replay
    assert checks == []
    run_simulation([codec.decode_trace(codec.encode_trace(t)) for t in traces], eight)
    assert len(checks) == len(traces)  # fresh objects: one real check each, not one per layer


def test_memory_compute_network_run_in_parallel():
    b = TraceBuilder(0)
    b.add_node(NodeType.MEM_LOAD, "ld", {"runtime": 8})
    b.comp("mm", 8)
    b.coll("ar", CommType.ALL_REDUCE, 64, "g", extra={"runtime": 8})
    result = run_simulation([b.build()], cfg(comm_timing=TimingMode.FROM_TRACE))
    assert result.makespan == 8  # three classes, one node each, all concurrent


def test_single_class_serializes():
    b = TraceBuilder(0)
    b.comp("a", 5)
    b.comp("b", 5)
    result = run_simulation([b.build()], cfg())
    assert result.makespan == 10  # one COMPUTE unit: no parallel COMP


def test_determinism_byte_identical_csv():
    from ettrace.workloads import Parallelism, WorkloadSpec, generate_workload

    spec = WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, layers=3)
    topo = Topology(TopologyKind.TORUS_2D, 2, 2, 31e9, 31e9)
    csvs = {
        run_simulation(generate_workload(spec), cfg(topo)).timeline_csv() for _ in range(3)
    }
    assert len(csvs) == 1


def test_every_node_gets_exactly_one_issue_and_callback(rng):
    for _ in range(30):
        parents_map = random_dag_parents(rng, rng.randint(1, 15))
        b = TraceBuilder(0)
        ids = {}
        for nid in sorted(parents_map):
            ids[nid] = b.comp(f"n{nid}", rng.randint(1, 9), parents=[ids[p] for p in sorted(parents_map[nid])])
        result = run_simulation([b.build()], cfg())
        issues = [r for r in result.timeline if r.event == "issue"]
        callbacks = [r for r in result.timeline if r.event == "callback"]
        assert len(issues) == len(callbacks) == len(parents_map)
        starts = {r.node_id: r.cycle for r in issues}
        for r in callbacks:
            assert r.cycle >= starts[r.node_id]
        # causality: a node never starts before all its parents finished
        finishes = {r.node_id: r.cycle for r in callbacks}
        for nid, ps in parents_map.items():
            for p in ps:
                assert starts[ids[nid]] >= finishes[ids[p]]


def test_single_npu_against_cycle_stepping_oracle(rng):
    for _ in range(60):
        n = rng.randint(1, 8)
        parents_map = random_dag_parents(rng, n, edge_prob=0.45)
        b = TraceBuilder(0)
        ids = {}
        oracle_nodes = {}
        for nid in sorted(parents_map):
            node_type = rng.choice([NodeType.COMP, NodeType.MEM_LOAD, NodeType.MEM_STORE])
            duration = rng.randint(1, 20)
            parents = [ids[p] for p in sorted(parents_map[nid])]
            ids[nid] = b.add_node(node_type, f"n{nid}", {"runtime": duration}, parents)
            cls = "compute" if node_type is NodeType.COMP else "memory"
            oracle_nodes[ids[nid]] = (cls, duration, set(parents))
        result = run_simulation([b.build()], cfg())
        want_makespan, want_spans = replay_oracle(oracle_nodes)
        assert result.makespan == want_makespan
        assert {k[1]: v for k, v in result.node_spans.items()} == want_spans


def test_compute_breakdown_table():
    result = run_simulation(overlap_traces(serial=True), cfg(comm_timing=TimingMode.FROM_TRACE))
    assert compute_breakdown(result) == [{"npu_id": 0, "compute": 10, "exposed_comm": 6}]


def test_sweep_npus_rows():
    rows = sweep_npus("mlp-dp", [1, 4], TopologyKind.TORUS_2D, 62e9)
    assert [r["npus"] for r in rows] == [1, 4]
    assert rows[0]["perf_norm"] == 1.0
    assert rows[0]["dims"] == "1x1"
    assert all(r["makespan_cycles"] > 0 for r in rows)
    csv = sweep_rows_to_csv(rows)
    header = csv.splitlines()[0]
    assert header == "preset,npus,dims,makespan_cycles,perf_norm,exposed_share"
    assert len(csv.splitlines()) == 3


def test_sweep_bandwidth_rows():
    rows = sweep_bandwidth("mlp-dp", 4, "torus2d", [31e9, 62e9])
    assert [(r["bw1"], r["bw2"]) for r in rows] == [(31e9, 31e9), (62e9, 62e9)]
    assert rows[0]["makespan_cycles"] >= rows[1]["makespan_cycles"]
    assert sweep_rows_to_csv([]) == ""


# sha256 of the sweep CSV text, recorded before the sweeps shared one loop.
SWEEP_CSV_SHA256 = {
    "npus-mlp-mp-torus-bw-pair-lat-pair-cycle-2ns": (
        lambda: sweep_npus("mlp-mp", [1, 2, 4, 6], "torus2d", (31e9, 62e9), (1e-6, 2e-6), cycle_time=2e-9),
        "82f49f67545b5d9f9fdaf1228b9417719c9b989c19545f7b8dbe35fc080ece5e",
    ),
    "npus-dlrm-switch": (
        lambda: sweep_npus("dlrm", [1, 4, 6], TopologyKind.SWITCH_2LVL, 62e9),
        "ffdbd989520c3585a8390285fe60f9311edc87048605ccdbd68dc05fd69ef5f8",
    ),
    "bw-transformer-switch-lat": (
        lambda: sweep_bandwidth("transformer", 4, "switch2lvl", [31e9, (62e9, 31e9), 124e9], latency=1e-6),
        "1fbe974b5024208e94389a325d0672dceccf5c54dc89cb3e883696b43759f81f",
    ),
    "bw-mlp-hybrid-6-torus-lat-pair-cycle-2ns": (
        lambda: sweep_bandwidth("mlp-hybrid", 6, "torus2d", [(10e9, 20e9), 62e9], (1e-6, 0.0), cycle_time=2e-9),
        "f8b75f9d4e6ce1e989b9c8c728970660f7b98a9db9b7b6ca872d6af7f03eeeb9",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CSV_SHA256))
def test_sweep_csv_bytes_are_pinned(case):
    sweep, digest = SWEEP_CSV_SHA256[case]
    assert hashlib.sha256(sweep_rows_to_csv(sweep()).encode()).hexdigest() == digest


def test_sim_config_refuses_non_finite_and_non_positive_parameters():
    for field in ("cycle_time", "compute_rate", "mem_bandwidth"):
        for value in (math.inf, -math.inf, math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
                cfg(**{field: value})
    assert cfg(compute_rate=None).compute_rate is None


def test_empty_workload():
    result = run_simulation([], cfg())
    assert result.makespan == 0
    assert result.timeline == []


def test_replay_polls_only_npus_that_got_a_callback(monkeypatch):
    steps = []
    issue = simulator._Npu.issue

    def counting_issue(npu, cycle, start):
        steps.append(npu.npu_id)
        return issue(npu, cycle, start)

    monkeypatch.setattr(simulator._Npu, "issue", counting_issue)
    traces = generate_workload(WorkloadSpec(npus=32, parallelism=Parallelism.PIPELINE, microbatches=4))
    nodes = sum(len(t.nodes) for t in traces)
    run_simulation(traces, cfg(parse_topology("torus2d:8x4", 62e9, 1e-6)), collect_timeline=False)
    # one issue step per NPU on the first visit, then one per NPU that got a
    # callback in a batch, at most one per node; issuing on all 32 NPUs after
    # each of this replay's 444 batches would take 14,240 steps
    assert 32 < len(steps) <= 2 * nodes + 32


def test_replay_builds_no_feeder(monkeypatch):
    def refuse(self, trace=None):
        raise AssertionError("replay built a Feeder")

    monkeypatch.setattr(Feeder, "__init__", refuse)
    traces = generate_workload(preset_spec("mlp-hybrid", 8))
    result = run_simulation(traces, cfg(parse_topology("torus2d:4x2", 62e9, 1e-6)))
    assert len(result.node_spans) == sum(len(t.nodes) for t in traces)
    with pytest.raises(AssertionError, match="built a Feeder"):
        Feeder(traces[0])


def test_replay_and_chrome_export_stay_under_900_bytes_per_node():
    """tracemalloc peak of a replay plus its Chrome export, per node.

    A 32x8 pipeline (1,504 nodes) peaked at 1,114 bytes per node while replay
    built one Feeder per NPU, kept its spans as a dict of tuples and exported
    through a list of event dicts; without them it peaks at 729.
    """
    traces = generate_workload(WorkloadSpec(npus=32, parallelism=Parallelism.PIPELINE, microbatches=8))
    nodes = sum(len(t.nodes) for t in traces)
    config = cfg(parse_topology("torus2d:8x4", 62e9, 1e-6))
    run_simulation(traces, config)  # first-use allocations are not the replay's
    gc.collect()
    tracemalloc.start()
    try:
        result = run_simulation(traces, config)
        timeline_to_chrome_trace(result.records, node_type_lookup(traces))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / nodes < 900, peak / nodes


def test_simulate_command_stays_under_1150_bytes_per_node(tmp_path, capsys):
    """tracemalloc peak of the in-process ``ettrace simulate --timeline --chrome`` command, per node.

    A 32x8 pipeline (1,504 nodes) peaked at 1,254 bytes per node while nodes and
    attributes carried a ``__dict__``, replay kept its timeline as tuples and
    both files were written from whole strings; without them it peaks at 1,024.
    """
    traces = generate_workload(WorkloadSpec(npus=32, parallelism=Parallelism.PIPELINE, microbatches=8))
    nodes = sum(len(t.nodes) for t in traces)
    codec.write_workload(traces, tmp_path / "w")
    del traces
    argv = ["simulate", "--trace-dir", str(tmp_path / "w"), "--topology", "torus2d:8x4", "--bw", "62e9"]
    argv += ["--lat", "1e-6", "--timeline", str(tmp_path / "t.csv"), "--chrome", str(tmp_path / "c.json")]
    argv += ["--output", str(tmp_path / "summary.csv")]
    assert main(argv) == 0  # first-use allocations are not the command's
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / nodes < 1150, peak / nodes


# sha256 of the timeline CSV, recorded before replay re-issued only on NPUs
# that got a callback; the digests must never move.
GOLDEN_TIMELINES = {
    "dlrm": "beac42ddb8f26511fe0b8acd6d46d4ed977c06ab8963deb3dae7e9c66425b34a",
    "mlp-dp": "3a57b3817a6c0aa415ff6c155427efe689d8f97845118699973b47f363e45cb4",
    "mlp-hybrid": "45aad88f2acf7af437a26ae15ff21551a57569be08fb83a86c6ed588cd0e8a50",
    "mlp-mp": "9e6c6bea3e9a61a60d5fa11a53979a91e0d22bdd2cef82cfa5ec2f70d5415080",
    "transformer": "dada129f34d1d149efefb3ecc462b9822754cc88007db9a535e567e91b4ac1b3",
    "pipeline-8x4": "9bc0e9052423ea7f752fe1c99472b3b46eb6a9a74ca8afeb43a16cb3177d4d3c",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TIMELINES))
def test_timeline_csv_matches_golden_digest(name):
    if name == "pipeline-8x4":
        spec = WorkloadSpec(npus=8, parallelism=Parallelism.PIPELINE, microbatches=4)
    else:
        spec = preset_spec(name, 8)
    result = run_simulation(generate_workload(spec), cfg(parse_topology("torus2d:4x2", 62e9, 1e-6)))
    assert hashlib.sha256(result.timeline_csv().encode()).hexdigest() == GOLDEN_TIMELINES[name]


def _simulate_files(traces, tmp_path) -> "tuple[bytes, bytes]":
    """The ``--timeline`` and ``--chrome`` files ``ettrace simulate`` writes for ``traces`` on a 4x2 torus."""
    codec.write_workload(traces, tmp_path / "w")
    argv = ["simulate", "--trace-dir", str(tmp_path / "w"), "--topology", "torus2d:4x2", "--bw", "62e9"]
    argv += ["--lat", "1e-6", "--timeline", str(tmp_path / "t.csv"), "--chrome", str(tmp_path / "c.json")]
    assert main(argv) == 0
    return (tmp_path / "t.csv").read_bytes(), (tmp_path / "c.json").read_bytes()


# pipeline-8x128 has 5,632 nodes: more lines and events than one write batch holds
@pytest.mark.parametrize("name", [*sorted(GOLDEN_TIMELINES), "pipeline-8x128"])
def test_simulate_streams_the_bytes_of_the_string_outputs(name, tmp_path, capsys):
    if name.startswith("pipeline-"):
        npus, microbatches = map(int, name[len("pipeline-"):].split("x"))
        spec = WorkloadSpec(npus=npus, parallelism=Parallelism.PIPELINE, microbatches=microbatches)
    else:
        spec = preset_spec(name, 8)
    traces = generate_workload(spec)
    timeline, chrome = _simulate_files(traces, tmp_path)
    result = run_simulation(traces, cfg(parse_topology("torus2d:4x2", 62e9, 1e-6)))
    assert timeline == result.timeline_csv().encode()
    assert chrome == timeline_to_chrome_trace(result.records, node_type_lookup(traces)).encode()
    if name in GOLDEN_TIMELINES:
        assert hashlib.sha256(timeline).hexdigest() == GOLDEN_TIMELINES[name]


def test_simulate_of_only_invalid_nodes_writes_empty_outputs(tmp_path, capsys):
    trace = Trace(0, (ETNode(1, "a", NodeType.INVALID), ETNode(2, "b", NodeType.INVALID, (1,))))
    assert _simulate_files([trace], tmp_path) == (b"", b"[]\n")


# sha256 of repr(list(node_spans.items())) and of repr(launches) for the
# GOLDEN_TIMELINES workloads, recorded before replay dropped its feeders:
# the spans' order is the order replay priced them in.
GOLDEN_SPANS_AND_LAUNCHES = {
    "dlrm": (
        "6f1156b9b186a9f49893d5f2d7bc24622c43f3bc1db4c96ae71c8d0ae479bc27",
        "245fbae8c3ed00b45b5ab1c7d7a1f243306b5d6e1b9e633ab7f2920a9d486d6c",
    ),
    "mlp-dp": (
        "e78bbf5f00918c842955a670b8bc6854afb730fce73c1c0f2c2e39e40f7316a3",
        "0ae2f064e4f54d9be5185fef5c3c66a268e157cb3bae68b9a956e33b4064ec1b",
    ),
    "mlp-hybrid": (
        "cf9d8f2f1406586bd0c7bd7dc1efd5cd4de1c6464111957514fa2d4eda03f10f",
        "5d6dc2c789b0efda3bb1d4161b85fbf3fed4cf538bfbe6a08ae0c732b6c66a03",
    ),
    "mlp-mp": (
        "038b82b8fae609315928bf74e2f9f659a3d17d54cd0d3c0398d319f05d19d593",
        "fa6b571752a935de7ff246a8ff3ec5ef2779a12b4d0d5fd0d7b18a41c1726ae5",
    ),
    "transformer": (
        "f117344d7ea21d3196db0402b5f0d6e548ea3af249332e803304a352e7428bbe",
        "950818b8c50484e1c59b94e7facb3d4ae548b779181924dcac6f9f0bbee3b729",
    ),
    "pipeline-8x4": (
        "12bff659f8db786ba1dd7776669dbccd08ea9b00d0a7496752f7b1f6eac1747b",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SPANS_AND_LAUNCHES))
def test_spans_and_launches_match_golden_digests(name):
    if name == "pipeline-8x4":
        spec = WorkloadSpec(npus=8, parallelism=Parallelism.PIPELINE, microbatches=4)
    else:
        spec = preset_spec(name, 8)
    result = run_simulation(generate_workload(spec), cfg(parse_topology("torus2d:4x2", 62e9, 1e-6)))
    spans, launches = GOLDEN_SPANS_AND_LAUNCHES[name]
    assert _digest(list(result.node_spans.items())) == spans
    assert _digest(result.launches) == launches


_COLLECTIVES = [CommType.ALL_REDUCE, CommType.ALL_GATHER, CommType.REDUCE_SCATTER, CommType.ALL_TO_ALL]
_P2P_TYPES = {NodeType.COMM_SEND: CommType.SEND, NodeType.COMM_RECV: CommType.RECV}


@st.composite
def _replay_workloads(draw):
    """Valid multi-rank workloads that need not replay: timing inputs may be
    missing, and ranks, peers and groups may not match up or fit a 4-NPU
    topology."""
    usually = st.sampled_from([False, True, True, True])  # a timing input is there
    traces = []
    for npu in draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True)):
        ids = draw(st.permutations(range(1, draw(st.integers(0, 6)) + 1)))
        nodes = []
        for i, node_id in enumerate(ids):
            node_type = draw(st.sampled_from(list(NodeType)))
            attrs = {}
            if draw(usually):
                attrs["runtime"] = draw(st.integers(0, 50))
            if node_type is NodeType.COMP and draw(st.booleans()):
                attrs["num_ops"] = draw(st.integers(0, 10**6))
            elif node_type in (NodeType.MEM_LOAD, NodeType.MEM_STORE) and draw(usually):
                attrs["tensor_size"] = draw(st.integers(0, 2**20))
            elif node_type is NodeType.COMM_COLL:
                attrs["comm_type"] = draw(st.sampled_from(_COLLECTIVES)).value
                attrs["comm_size"] = draw(st.integers(0, 2**20))
                attrs["comm_group"] = draw(st.sampled_from(["g", "h"]))
            elif node_type in _P2P_TYPES:
                attrs["comm_size"] = draw(st.integers(0, 2**20))
                attrs["comm_peer"] = draw(st.integers(0, 4))
                if draw(st.booleans()):
                    attrs["comm_type"] = _P2P_TYPES[node_type].value
                if draw(st.booleans()):
                    attrs["comm_tag"] = draw(st.integers(0, 1))
            parents = draw(st.lists(st.sampled_from(ids[:i]), unique=True, max_size=2)) if i else []
            nodes.append(ETNode(node_id, f"n{node_id}", node_type, tuple(parents), make_attributes(attrs)))
        traces.append(Trace(npu, tuple(nodes)))
    return traces


_GRID = Topology(TopologyKind.TORUS_2D, 2, 2, 1e9, 1e9)
_REPLAY_CONFIGS = (
    cfg(_GRID, compute_timing=TimingMode.FROM_TRACE, comm_timing=TimingMode.FROM_TRACE),
    cfg(_GRID, comm_timing=TimingMode.MODEL),
    cfg(_GRID, compute_timing=TimingMode.MODEL),  # no compute_rate
)


@settings(max_examples=200, deadline=None)
@given(_replay_workloads())
def test_valid_workloads_replay_deadlock_or_name_the_node(traces):
    assert validate_workload(traces).ok
    nodes = {(t.npu_id, n.id) for t in traces for n in t.nodes}
    timed = {(t.npu_id, n.id) for t in traces for n in t.nodes if n.type is not NodeType.INVALID}
    for config in _REPLAY_CONFIGS:
        try:
            result = run_simulation(traces, config)
        except DeadlockError:
            continue
        except ValueError as exc:
            named = re.match(r"npu (\d+) node (\d+): ", str(exc))
            assert named and (int(named[1]), int(named[2])) in nodes, exc
            continue
        assert set(result.node_spans) == timed


def _deadlock_candidate(seed):
    """A seeded 4-rank workload of random DAGs over every node type, with
    collectives and p2p whose order or peers need not match across ranks."""
    rng = random.Random(seed)
    traces = []
    for npu in range(4):
        parents_map = random_dag_parents(rng, rng.randint(3, 9), edge_prob=0.35)
        nodes = []
        for nid in sorted(parents_map):
            node_type = rng.choice(list(NodeType))
            attrs = {"runtime": rng.randint(1, 30)}
            if node_type is NodeType.COMM_COLL:
                attrs.update(comm_type=rng.choice(_COLLECTIVES[:2]).value, comm_size=rng.randint(0, 4096),
                             comm_group=rng.choice(["g", "h"]))
            elif node_type in _P2P_TYPES:
                attrs.update(comm_size=rng.randint(0, 4096), comm_peer=rng.choice([p for p in range(4) if p != npu]))
            elif node_type in (NodeType.MEM_LOAD, NodeType.MEM_STORE):
                attrs["tensor_size"] = rng.randint(0, 4096)
            nodes.append(ETNode(nid, f"r{npu}n{nid}", node_type, tuple(sorted(parents_map[nid])),
                                make_attributes(attrs)))
        traces.append(Trace(npu, tuple(nodes)))
    return traces


def _deadlocks(count):
    """The first ``count`` seeds whose candidate deadlocks, with its DeadlockError."""
    found = []
    for seed in itertools.count():
        traces = _deadlock_candidate(seed)
        try:
            run_simulation(traces, cfg(_GRID))
        except DeadlockError as exc:
            found.append((seed, traces, exc))
            if len(found) == count:
                return found


# sha256 over the stuck list (npu, node, name, state, in order) and the
# message of each seeded deadlock, recorded before replay's records changed.
DEADLOCK_SHA256 = "b9702c9e1702a7ae6a951982fe5bbf09619fce6f01c9cdf54545b8cc1f17537f"


def test_deadlock_reports_are_pinned():
    lines = []
    states = set()
    invalid_stuck = 0
    for seed, traces, exc in _deadlocks(24):
        types = {(t.npu_id, n.id): n.type for t in traces for n in t.nodes}
        states |= {s.state for s in exc.stuck}
        invalid_stuck += sum(types[s.npu_id, s.node_id] is NodeType.INVALID for s in exc.stuck)
        lines.append(f"{seed} {exc.stuck!r} {exc}")
    assert states == {"in-flight", "queued", "blocked"} and invalid_stuck
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DEADLOCK_SHA256


# sha256 of repr([exc.waiting, ...]) over the same seeded deadlocks, recorded
# before replay dropped its feeders.
DEADLOCK_WAITING_SHA256 = "f17c3eee7c70f5865c2a3c33b7e8a927796a09040e4e8df3f27a78963b6344e7"


def test_deadlock_waiting_is_pinned():
    assert _digest([exc.waiting for _, _, exc in _deadlocks(24)]) == DEADLOCK_WAITING_SHA256


def _attrs_node(node_id, node_type, *attrs, parents=()):
    return ETNode(node_id, f"n{node_id}", node_type, parents, tuple(Attribute(*a) for a in attrs))


_I, _S, _F = AttributeKind.INT, AttributeKind.STRING, AttributeKind.FLOAT
_COLL_ATTRS = (("comm_type", _S, "ALL_REDUCE"), ("comm_size", _I, 64), ("comm_group", _S, "g"))

_WRONG = {v.WRONG_ATTR_KIND}

# (case, nodes on npu 0, config, the codes validation reports): attributes of a
# wrong kind, repeated or missing, which run_simulation refuses before lowering
# reads any of them, whatever the config.
LOWER_CASES = [
    ("runtime-string", [_attrs_node(1, NodeType.COMP, ("runtime", _S, "5"))], cfg(), _WRONG),
    ("runtime-float", [_attrs_node(1, NodeType.COMP, ("runtime", _F, 5.0))], cfg(), _WRONG),
    ("runtime-kind-int-value-str", [_attrs_node(1, NodeType.COMP, ("runtime", _I, "5"))], cfg(),
     {v.KIND_VALUE_MISMATCH}),
    ("runtime-bool", [_attrs_node(1, NodeType.COMP, ("runtime", _I, True))], cfg(), {v.KIND_VALUE_MISMATCH}),
    ("runtime-string-with-num-ops",
     [_attrs_node(1, NodeType.COMP, ("num_ops", _I, 10), ("runtime", _S, "5"))],
     cfg(compute_timing=TimingMode.MODEL, compute_rate=1e9), _WRONG),
    ("runtime-string-on-collective", [_attrs_node(1, NodeType.COMM_COLL, *_COLL_ATTRS, ("runtime", _S, "x"))],
     cfg(), _WRONG),
    ("first-runtime-wins", [_attrs_node(1, NodeType.COMP, ("runtime", _I, 5), ("runtime", _S, "x"))], cfg(),
     {v.DUPLICATE_ATTRIBUTE, v.WRONG_ATTR_KIND}),
    ("first-runtime-wins-wrong", [_attrs_node(1, NodeType.COMP, ("runtime", _S, "x"), ("runtime", _I, 5))], cfg(),
     {v.DUPLICATE_ATTRIBUTE, v.WRONG_ATTR_KIND}),
    ("num-ops-string-model", [_attrs_node(1, NodeType.COMP, ("runtime", _I, 5), ("num_ops", _S, "9"))],
     cfg(compute_timing=TimingMode.MODEL, compute_rate=1e9), _WRONG),
    ("num-ops-string-from-trace", [_attrs_node(1, NodeType.COMP, ("runtime", _I, 5), ("num_ops", _S, "9"))],
     cfg(), _WRONG),
    ("comp-string-peer", [_attrs_node(1, NodeType.COMP, ("comm_peer", _S, "one"), ("runtime", _I, 7))], cfg(),
     _WRONG),
    ("comp-string-size-and-type",
     [_attrs_node(1, NodeType.COMP, ("runtime", _I, 3), ("comm_size", _S, "1"), ("comm_type", _I, 4))], cfg(),
     _WRONG),
    ("tensor-size-string", [_attrs_node(1, NodeType.MEM_LOAD, ("tensor_size", _S, "4"), ("runtime", _I, 2))], cfg(),
     _WRONG),
    ("comm-size-string", [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _S, "ALL_REDUCE"), ("comm_size", _S, "64"),
                                      ("comm_group", _S, "g"))], cfg(), _WRONG),
    ("comm-size-string-from-trace",
     [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _S, "ALL_REDUCE"), ("comm_size", _S, "64"),
                  ("comm_group", _S, "g"), ("runtime", _I, 4))],
     cfg(comm_timing=TimingMode.FROM_TRACE), _WRONG),
    ("comm-size-missing-before-group-kind",
     [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _S, "ALL_REDUCE"), ("comm_group", _I, 1))], cfg(),
     {v.MISSING_REQUIRED_ATTR, v.WRONG_ATTR_KIND}),
    ("comm-group-int", [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _S, "ALL_REDUCE"), ("comm_size", _I, 64),
                                    ("comm_group", _I, 1))], cfg(), _WRONG),
    ("comm-type-int", [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _I, 3), ("comm_size", _I, 64),
                                   ("comm_group", _S, "g"))], cfg(), _WRONG),
    ("group-checked-before-type",
     [_attrs_node(1, NodeType.COMM_COLL, ("comm_type", _I, 3), ("comm_size", _I, 64), ("comm_group", _I, 1))], cfg(),
     _WRONG),
    ("comm-type-missing", [_attrs_node(1, NodeType.COMM_COLL, ("comm_size", _I, 64), ("comm_group", _S, "g"))], cfg(),
     {v.MISSING_REQUIRED_ATTR}),
    ("send-peer-string", [_attrs_node(1, NodeType.COMM_SEND, ("comm_size", _I, 64), ("comm_peer", _S, "0"))], cfg(),
     _WRONG),
    ("send-tag-string", [_attrs_node(1, NodeType.COMM_SEND, ("comm_size", _I, 64), ("comm_peer", _I, 0),
                                     ("comm_tag", _S, "t"))], cfg(), _WRONG),
    ("send-comm-type-int-unread",
     [Trace(0, (_attrs_node(1, NodeType.COMM_SEND, ("comm_size", _I, 64), ("comm_peer", _I, 1),
                            ("comm_type", _I, 1)),)),
      Trace(1, (_attrs_node(1, NodeType.COMM_RECV, ("comm_size", _I, 64), ("comm_peer", _I, 0)),))],
     cfg(PAIR), _WRONG),
]


@pytest.mark.parametrize("case", [c[0] for c in LOWER_CASES])
def test_lowering_reads_and_checks_attributes_as_pinned(case):
    """Lowering reads only validated attributes: the gate refuses each of these first."""
    _, nodes, config, want = next(c for c in LOWER_CASES if c[0] == case)
    traces = nodes if isinstance(nodes[0], Trace) else [Trace(0, tuple(nodes))]
    with pytest.raises(InvalidTraceError, match="refusing to simulate invalid workload") as info:
        run_simulation(traces, config)
    assert info.value.report.codes() == want
    assert info.value.report == validate_workload(traces)


# --------------------------------------------------------------------------
# Streamed workloads: any iterable of traces, one held at a time
# --------------------------------------------------------------------------


def _golden_workload(name):
    if name == "pipeline-8x4":
        return generate_workload(WorkloadSpec(npus=8, parallelism=Parallelism.PIPELINE, microbatches=4))
    return generate_workload(preset_spec(name, 8))


def _outcome(traces, config):
    """A replay's makespan, per-NPU stats, spans, launches and events, or its error's type and text."""
    try:
        result = run_simulation(traces, config)
    except DeadlockError as exc:
        return DeadlockError, str(exc), exc.stuck, exc.waiting
    except ValueError as exc:
        return type(exc), str(exc)
    return result.makespan, result.per_npu, list(result.node_spans.items()), result.launches, result.events


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(GOLDEN_TIMELINES)), st.randoms(use_true_random=False))
def test_a_golden_workload_replays_alike_as_a_list_an_iterator_or_a_permutation(name, rng):
    traces = _golden_workload(name)
    shuffled = rng.sample(traces, len(traces))
    config = cfg(parse_topology("torus2d:4x2", 62e9, 1e-6))
    want = _outcome(traces, config)
    assert _outcome(iter(traces), config) == want
    assert _outcome(shuffled, config) == want
    timeline = run_simulation(iter(shuffled), config).timeline_csv()
    assert hashlib.sha256(timeline.encode()).hexdigest() == GOLDEN_TIMELINES[name]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_random_workload_replays_alike_as_a_list_an_iterator_or_a_permutation(data):
    traces = data.draw(_replay_workloads())
    shuffled = data.draw(st.permutations(traces))
    for config in _REPLAY_CONFIGS:
        want = _outcome(traces, config)
        assert _outcome(iter(traces), config) == want
        assert _outcome(shuffled, config) == want
        assert _outcome(iter(shuffled), config) == want


def _untimed(npu):
    """A valid trace that FROM_TRACE timing cannot replay: its COMP node has no runtime."""
    return Trace(npu, (ETNode(1, "c", NodeType.COMP),))


def test_a_later_violation_beats_an_earlier_lowering_error():
    dangling = Trace(1, (ETNode(1, "c", NodeType.COMP, (9,), make_attributes({"runtime": 1})),))
    for traces in ([_untimed(0), dangling], iter([_untimed(0), dangling])):
        with pytest.raises(InvalidTraceError, match="refusing to simulate invalid workload") as info:
            run_simulation(traces, cfg(PAIR))
        assert info.value.report.codes() == {v.DANGLING_PARENT}


def test_the_lowest_npu_names_the_lowering_error_in_any_order():
    for traces in ([_untimed(0), _untimed(1)], [_untimed(1), _untimed(0)]):
        with pytest.raises(ValueError, match=r"^npu 0 node 1: FROM_TRACE compute timing requires") as info:
            run_simulation(iter(traces), cfg(PAIR))
        assert not isinstance(info.value, InvalidTraceError)


def test_a_duplicate_npu_id_is_still_reported_when_streamed():
    twice = [chain_comp(2), chain_comp(3)]  # both on npu 0
    for traces in (twice, iter(twice)):
        with pytest.raises(InvalidTraceError) as info:
            run_simulation(traces, cfg())
        assert info.value.report.codes() == {v.DUPLICATE_ID}
        assert "npu_id 0 appears in more than one trace" in str(info.value)
    assert validate_workload(iter(twice)).codes() == {v.DUPLICATE_ID}


def _count_live_traces(monkeypatch):
    """Count the decoded traces alive as each one is decoded; returns the list of counts."""
    live, counts = [0], []
    decode = codec.read_trace

    def read_trace(path, fmt=None):
        trace = decode(path, fmt)
        live[0] += 1
        weakref.finalize(trace, lambda: live.__setitem__(0, live[0] - 1))
        counts.append(live[0])
        return trace

    monkeypatch.setattr(codec, "read_trace", read_trace)
    return counts


@pytest.mark.parametrize("fmt", ["json", "binary"])
def test_simulate_and_validate_hold_one_decoded_trace_at_a_time(fmt, tmp_path, capsys, monkeypatch):
    traces = generate_workload(preset_spec("mlp-hybrid", 8))
    codec.write_workload(traces, tmp_path / "w", fmt=fmt)
    del traces
    gc.collect()
    argv = ["simulate", "--trace-dir", str(tmp_path / "w"), "--topology", "torus2d:4x2", "--bw", "62e9"]
    argv += ["--timeline", str(tmp_path / "t.csv"), "--chrome", str(tmp_path / "c.json")]
    for command in (argv, ["validate", str(tmp_path / "w")]):
        counts = _count_live_traces(monkeypatch)
        assert main(command) == 0
        assert counts == [1] * 8, (command[0], counts)


def test_simulate_command_holds_one_trace_under_800_bytes_per_node(tmp_path, capsys):
    """tracemalloc peak of the command and workload of the 1,150 B/node bound, per node.

    The 32x8 pipeline (1,504 nodes) peaked at 1,024 bytes per node while the
    command held every decoded trace through replay and built a node-type
    table for the Chrome lanes; it peaks at 737 when each trace is dropped
    once lowered and the lanes come from the result.
    """
    traces = generate_workload(WorkloadSpec(npus=32, parallelism=Parallelism.PIPELINE, microbatches=8))
    nodes = sum(len(t.nodes) for t in traces)
    codec.write_workload(traces, tmp_path / "w")
    del traces
    argv = ["simulate", "--trace-dir", str(tmp_path / "w"), "--topology", "torus2d:8x4", "--bw", "62e9"]
    argv += ["--lat", "1e-6", "--timeline", str(tmp_path / "t.csv"), "--chrome", str(tmp_path / "c.json")]
    argv += ["--output", str(tmp_path / "summary.csv")]
    assert main(argv) == 0  # first-use allocations are not the command's
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / nodes < 800, peak / nodes


def test_the_result_lanes_are_the_node_type_lanes():
    traces = generate_workload(preset_spec("dlrm", 8))
    result = run_simulation(traces, cfg(parse_topology("torus2d:4x2", 62e9, 1e-6)))
    lane_of = type_lanes(node_type_lookup(traces))
    assert all(result.lane(npu, node) == lane_of(npu, node) for npu, node in result.node_spans)
