import hashlib
import random
import weakref
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ettrace.builder import TraceBuilder
from ettrace.codec import trace_to_json
from ettrace.costmodel import Topology, TopologyKind, near_square_dims
from ettrace.schema import CommType, ETNode, NodeType, Trace, make_attributes
from ettrace.simulator import DeadlockError, SimConfig, _template_topology, run_simulation
from ettrace.synth import (
    ClusterModel,
    CommTypeModel,
    FittedModels,
    Gmm1D,
    GmmComponent,
    MasterTrace,
    MergeConflictError,
    SynthConfig,
    build_master_trace,
    comm_sequence,
    fit_gmm,
    fit_models,
    ks_statistic,
    models_from_json,
    models_to_json,
    reconstruct_rank_traces,
    synthesize,
    synthesize_master,
    total_variation,
)
from ettrace.synth import _cdf, _size_sampler
from ettrace.validate import validate_trace

AR, AG, RS, A2A = CommType.ALL_REDUCE, CommType.ALL_GATHER, CommType.REDUCE_SCATTER, CommType.ALL_TO_ALL


def rank_trace(rank, ops):
    b = TraceBuilder(rank)
    prev = None
    for ctype, group, size in ops:
        prev = b.coll(f"{ctype.value.lower()}", ctype, size, group,
                      parents=[prev] if prev is not None else [])
    return b.build()


def test_merge_two_ranks():
    traces = [
        rank_trace(0, [(AR, "g", 100), (AG, "g", 40)]),
        rank_trace(1, [(AR, "g", 120), (AG, "g", 40)]),
    ]
    master = build_master_trace(traces)
    assert len(master) == 2 and master.ranks == frozenset({0, 1})
    first, second = master.ops
    assert (first.seq_no, first.comm_type, first.comm_group) == (0, AR, "g")
    assert first.sizes == {0: 100, 1: 120}
    assert first.participants == frozenset({0, 1})
    assert second.comm_type is AG


def test_merge_groupwise_participation():
    traces = [
        rank_trace(0, [(AR, "dp", 8)]),
        rank_trace(1, [(AR, "dp", 8)]),
        rank_trace(2, [(A2A, "mp", 8)]),
    ]
    master = build_master_trace(traces)
    by_group = {op.comm_group: op for op in master.ops}
    assert by_group["dp"].participants == frozenset({0, 1})
    assert by_group["mp"].participants == frozenset({2})


def test_merge_orders_by_earliest_appearance():
    # rank 0 waits in g1 for rank 1, which waits in g2 for rank 0: replay
    # deadlocks on this circular wait, so the merge refuses it too
    traces = [
        rank_trace(0, [(AR, "g1", 8), (AG, "g2", 8)]),
        rank_trace(1, [(AG, "g2", 8), (AR, "g1", 8)]),
    ]
    with pytest.raises(MergeConflictError, match="group 'g1': op order conflict at slot 0: rank 0 op 0 is ALL_REDUCE$"):
        build_master_trace(traces)


def test_merge_count_conflict_names_group():
    traces = [
        rank_trace(0, [(AR, "dp", 8), (AR, "dp", 8)]),
        rank_trace(1, [(AR, "dp", 8)]),
    ]
    with pytest.raises(MergeConflictError, match="group 'dp'.*op count.*rank 0 has 2 ops"):
        build_master_trace(traces)
    try:
        build_master_trace(traces)
    except MergeConflictError as err:
        assert err.group == "dp"


def test_merge_slot_type_conflict_names_both_ops():
    traces = [
        rank_trace(0, [(AR, "g", 8), (AG, "g", 8)]),
        rank_trace(1, [(AG, "g", 8), (AR, "g", 8)]),
    ]
    with pytest.raises(MergeConflictError, match="slot 0.*rank 0 op 0 is ALL_REDUCE.*rank 1 op 0 is ALL_GATHER"):
        build_master_trace(traces)


def test_merge_duplicate_rank_rejected():
    with pytest.raises(ValueError, match="npu_id 0"):
        build_master_trace([rank_trace(0, []), rank_trace(0, [])])


def issue_order_workload():
    """Rank 0 lists ALL_REDUCE first but gates it on a COMP, so both ranks issue ALL_GATHER first."""
    rank0 = Trace(0, (
        ETNode(1, "ar", NodeType.COMM_COLL, (3,), make_attributes(
            {"comm_type": "ALL_REDUCE", "comm_size": 64, "comm_group": "g"})),
        ETNode(2, "ag", NodeType.COMM_COLL, (), make_attributes(
            {"comm_type": "ALL_GATHER", "comm_size": 64, "comm_group": "g"})),
        ETNode(3, "warmup", NodeType.COMP, (), make_attributes({"runtime": 10})),
    ))
    return [rank0, rank_trace(1, [(AG, "g", 64), (AR, "g", 64)])]


def test_merge_matches_collectives_in_issue_order():
    traces = issue_order_workload()
    master = build_master_trace(traces)
    assert [(op.comm_type, op.positions) for op in master.ops] == [(AG, {0: 0, 1: 0}), (AR, {0: 1, 1: 1})]
    pair = SimConfig(topology=Topology(TopologyKind.TORUS_2D, 2, 1, 1e9, 1e9))
    rebuilt = reconstruct_rank_traces(master, 2)
    assert run_simulation(rebuilt, pair).makespan == run_simulation(traces, pair).makespan == 96


def test_merge_order_is_that_of_its_fixed_fabric():
    # rank 0's gated ALL_GATHER is ready at cycle 100; if its ALL_REDUCE is still
    # running then, the ALL_GATHER queues ahead of the REDUCE_SCATTER rank 1 issues next
    b0 = TraceBuilder(0)
    ar = b0.coll("ar", AR, 64, "g")
    b0.coll("ag", AG, 64, "g", parents=[b0.comp("gate", 100)])
    b0.coll("rs", RS, 64, "g", parents=[ar])
    b1 = TraceBuilder(1)
    prev = b1.coll("ar", AR, 64, "g")
    prev = b1.coll("rs", RS, 64, "g", parents=[prev])
    b1.coll("ag", AG, 64, "g", parents=[prev])
    traces = [b0.build(), b1.build()]
    master = build_master_trace(traces)  # 62 GB/s: the ALL_REDUCE ends long before cycle 100
    assert [op.comm_type for op in master.ops] == [AR, RS, AG]
    slow = SimConfig(topology=Topology(TopologyKind.TORUS_2D, 2, 1, 1e6, 1e6))
    with pytest.raises(DeadlockError, match="npu 0 node 3 \\('ag', in-flight\\)"):
        run_simulation(traces, slow)


def test_merge_reraises_a_deadlock_without_an_open_collective():
    # a RECV whose peer never sends: replay deadlocks on a pair, not on a collective
    b0 = TraceBuilder(0)
    b0.coll("ar", AR, 8, "g")
    b0.recv("r", 8, comm_peer=1)
    b1 = TraceBuilder(1)
    b1.coll("ar", AR, 8, "g")
    with pytest.raises(DeadlockError, match="'r', in-flight") as err:
        build_master_trace([b0.build(), b1.build()])
    assert [key for key, _ in err.value.waiting] == [(1, 0, "seq", 0)]


def test_merge_names_a_p2p_peer_with_no_trace():
    # the fabric is sized by the npu ids, never by a peer: 2**63 - 1 fails as fast as 8
    for peer in (8, 2**63 - 1):
        b0 = TraceBuilder(0)
        b0.recv("r", 8, comm_peer=peer)
        with pytest.raises(ValueError, match=f"^npu 0 node 1: comm_peer {peer} is not the npu_id of any trace$"):
            build_master_trace([b0.build(), TraceBuilder(1).build()])


def test_merge_needs_the_timing_attributes_replay_needs():
    b = TraceBuilder(0)
    gate = b.add_node(NodeType.COMP, "no-runtime", {})
    b.coll("ar", AR, 8, "g", parents=[gate])
    with pytest.raises(ValueError, match="node 1: FROM_TRACE compute timing requires a 'runtime'"):
        build_master_trace([b.build()])


@st.composite
def gated_collective_workloads(draw):
    """Random collectives per rank, each chained to the last, gated on a COMP, or free.

    A gate lets a rank issue its collectives out of trace order, and ranks may
    list a group's ops in different orders, so some workloads deadlock.
    """
    npus = draw(st.integers(1, 4))
    groups = [draw(st.sets(st.integers(0, npus - 1), min_size=1)) for _ in range(draw(st.integers(1, 3)))]
    ops = draw(st.lists(st.tuples(st.integers(0, len(groups) - 1), st.sampled_from([AR, AG, RS, A2A]),
                                  st.integers(1, 1 << 12)), max_size=8))
    traces = []
    for rank in range(npus):
        mine = [(f"g{g}", ctype, size) for g, ctype, size in ops if rank in groups[g]]
        if draw(st.booleans()):
            mine = draw(st.permutations(mine))
        b = TraceBuilder(rank)
        prev = None
        for group, ctype, size in mine:
            mode = draw(st.sampled_from(["chain", "gate", "free"]))
            if mode == "gate":
                parents = [b.comp("gate", draw(st.integers(0, 200)))]
            else:
                parents = [prev] if mode == "chain" and prev is not None else []
            prev = b.coll(ctype.value.lower(), ctype, size, group, parents=parents)
        traces.append(b.build())
    return traces


@settings(max_examples=150, deadline=None)
@given(gated_collective_workloads())
def test_merge_succeeds_exactly_when_replay_finishes(traces):
    fabric = SimConfig(_template_topology("switch2lvl", len(traces), 62e9, 0.0))
    try:
        run_simulation(traces, fabric, collect_timeline=False)
        replays = True
    except DeadlockError:
        replays = False
    try:
        master = build_master_trace(traces)
    except (MergeConflictError, DeadlockError):
        assert not replays
        return
    assert replays
    assert build_master_trace(reconstruct_rank_traces(master, len(traces))) == master


def test_reconstruct_names_and_chaining():
    master = build_master_trace([
        rank_trace(0, [(AR, "g", 100), (RS, "g", 40)]),
        rank_trace(1, [(AR, "g", 120), (RS, "g", 40)]),
    ])
    traces = reconstruct_rank_traces(master, 2)
    t0 = traces[0]
    assert [n.name for n in t0.nodes] == ["all_reduce_0", "reduce_scatter_1"]
    assert t0.nodes[1].parents == (t0.nodes[0].id,)
    assert comm_sequence(t0) == ((AR.value, "g", 100), (RS.value, "g", 40))
    assert all(validate_trace(t).ok for t in traces)


def test_reconstruct_pads_missing_ranks_with_empty_traces():
    master = build_master_trace([rank_trace(0, [(AR, "g", 8)])])
    traces = reconstruct_rank_traces(master, 3)
    assert [t.npu_id for t in traces] == [0, 1, 2]
    assert [len(t.nodes) for t in traces] == [1, 0, 0]


def random_mergeable_corpus(rng, npus, n_ops, n_groups):
    """Generate master-first so per-group op orders are consistent by construction."""
    groups = {f"g{i}": frozenset(rng.sample(range(npus), rng.randint(1, npus))) for i in range(n_groups)}
    ops = []
    for _ in range(n_ops):
        group = rng.choice(sorted(groups))
        ctype = rng.choice([AR, AG, RS, A2A])
        sizes = {rank: 4 * rng.randint(1, 1 << 16) for rank in groups[group]}
        ops.append((ctype, group, sizes))
    traces = []
    for rank in range(npus):
        mine = [(ctype, group, sizes[rank]) for ctype, group, sizes in ops if rank in sizes]
        traces.append(rank_trace(rank, mine))
    return traces


def test_merge_roundtrip_on_random_corpora(rng):
    for _ in range(60):
        npus = rng.randint(2, 6)
        traces = random_mergeable_corpus(rng, npus, rng.randint(0, 30), rng.randint(1, 4))
        master = build_master_trace(traces)
        rebuilt = reconstruct_rank_traces(master, npus)
        for original, copy in zip(traces, rebuilt):
            assert comm_sequence(copy) == comm_sequence(original)
        # merging the reconstruction is a fixed point
        again = build_master_trace(rebuilt)
        assert [(op.comm_type, op.comm_group, op.sizes) for op in again.ops] == [
            (op.comm_type, op.comm_group, op.sizes) for op in master.ops
        ]


def test_fit_gmm_single_component():
    rng = np.random.default_rng(1)
    samples = rng.normal(5.0, 2.0, size=10_000)
    gmm = fit_gmm(samples, k=1, seed=0)
    (comp,) = gmm.components
    assert comp.weight == 1.0
    assert abs(comp.mean - 5.0) < 0.1
    assert abs(np.sqrt(comp.var) - 2.0) < 0.1


def test_fit_gmm_two_components():
    rng = np.random.default_rng(2)
    samples = np.concatenate([
        rng.normal(10.0, 0.5, size=6_000),
        rng.normal(20.0, 1.0, size=4_000),
    ])
    gmm = fit_gmm(samples, k=2, seed=0)
    lo, hi = gmm.components  # sorted by mean
    assert abs(lo.mean - 10.0) < 0.1 and abs(hi.mean - 20.0) < 0.1
    assert abs(lo.weight - 0.6) < 0.05 and abs(hi.weight - 0.4) < 0.05


def test_fit_gmm_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(3)
    samples = np.concatenate([rng.normal(0, 1, 500), rng.normal(6, 1, 500)])
    assert fit_gmm(samples, 2, seed=7) == fit_gmm(samples, 2, seed=7)


def test_fit_gmm_degenerate_inputs(caplog):
    with pytest.raises(ValueError, match="zero samples"):
        fit_gmm([], 1, seed=0)
    with pytest.raises(ValueError, match="k must be"):
        fit_gmm([1.0], 0, seed=0)
    import logging
    with caplog.at_level(logging.WARNING, logger="ettrace.synth"):
        gmm = fit_gmm([1.0, 2.0], k=5, seed=0)
    assert len(gmm.components) == 1
    assert "falling back" in caplog.text
    constant = fit_gmm([3.0] * 10, k=1, seed=0)
    assert constant.components[0].var == 1e-6  # floored


def test_gmm_sample_statistics():
    gmm = Gmm1D((GmmComponent(0.5, 0.0, 1.0), GmmComponent(0.5, 100.0, 1.0)))
    x = gmm.sample(np.random.default_rng(0), 20_000)
    assert abs(float(x.mean()) - 50.0) < 1.5
    assert (x < 50).mean() == pytest.approx(0.5, abs=0.02)
    again = gmm.sample(np.random.default_rng(0), 20_000)
    assert np.array_equal(x, again)


def test_ks_statistic():
    assert ks_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0
    assert ks_statistic([0.0, 1.0], [10.0, 11.0]) == 1.0
    rng = np.random.default_rng(5)
    same = ks_statistic(rng.normal(0, 1, 4000), rng.normal(0, 1, 4000))
    shifted = ks_statistic(rng.normal(0, 1, 4000), rng.normal(3, 1, 4000))
    assert same < 0.05 < shifted


def test_total_variation():
    assert total_variation({"A": 1.0}, {"A": 1.0}) == 0.0
    assert total_variation({"A": 1.0}, {"B": 1.0}) == 1.0
    assert total_variation({"A": 0.7, "B": 0.3}, {"A": 0.5, "B": 0.5}) == pytest.approx(0.2)


def test_memoryless_model_has_iid_transitions():
    probs = {AR.value: 0.7, AG.value: 0.3}
    model = CommTypeModel.memoryless(probs)
    (cluster,) = model.clusters
    assert cluster.type_probs == probs
    assert cluster.transitions == {AR.value: probs, AG.value: probs}
    cluster.check()


def test_cluster_model_check_rejects_bad_sums():
    with pytest.raises(ValueError, match="sum to 1"):
        ClusterModel(1.0, {AR.value: 0.5}, {}, (1,)).check()
    with pytest.raises(ValueError, match="transition row"):
        ClusterModel(1.0, {AR.value: 1.0}, {AR.value: {AR.value: 0.7}}, (1,)).check()
    with pytest.raises(ValueError, match="sum to 1"):
        ClusterModel(1.0, {}, {}, (1,)).check()


def corpus_masters(rng):
    """Two composition families: AR-heavy and A2A-heavy masters."""
    masters = []
    for i in range(8):
        heavy = AR if i % 2 == 0 else A2A
        light = AG if i % 2 == 0 else RS
        ops = []
        for _ in range(30):
            ctype = heavy if rng.random() < 0.9 else light
            ops.append((ctype, "g", {0: 4096, 1: 4096}))
        traces = []
        for rank in (0, 1):
            traces.append(rank_trace(rank, [(c, g, s[rank]) for c, g, s in ops]))
        masters.append(build_master_trace(traces))
    return masters


def test_fit_models_separates_composition_clusters(rng):
    models = fit_models(corpus_masters(rng), k_components=1, n_clusters=2, seed=0)
    clusters = models.type_model.clusters
    assert len(clusters) == 2
    assert sum(c.weight for c in clusters) == pytest.approx(1.0)
    dominant = sorted(max(c.type_probs, key=c.type_probs.get) for c in clusters)
    assert dominant == [AR.value, A2A.value]
    for cluster in clusters:
        cluster.check()
        assert all(length == 30 for length in cluster.lengths)
    assert set(models.size_model) == {AR.value, AG.value, RS.value, A2A.value}


def test_fit_models_requires_corpus():
    for empty in ([], (master for master in ())):
        with pytest.raises(ValueError, match="corpus must contain at least one master trace"):
            fit_models(empty)


def sized_masters(seed, n):
    """``n`` masters of random comm types, groups and sizes, each merged from a random workload."""
    rng = random.Random(seed)
    return [
        build_master_trace(random_mergeable_corpus(rng, rng.randint(2, 5), rng.randint(1, 25), rng.randint(1, 3)))
        for _ in range(n)
    ]


def a2a_last_masters():
    """Masters whose one ALL_TO_ALL is their last op, so it is never a predecessor."""
    return [
        build_master_trace([rank_trace(r, [(AR, "g", 64 * (i + 1)), (AG, "g", 128), (A2A, "g", 4096 * (i + 1))])
                            for r in (0, 1)])
        for i in range(3)
    ]


# sha256 of models_to_json(fit_models(corpus, k_components, n_clusters, seed)), recorded when
# fit_models still kept every master and read its ops once for k-means, once per cluster and
# once for the sizes; a fit in one pass must write the same bytes.
MODELS_SHA256 = [
    ("k3-c2", lambda: sized_masters(1, 12), 3, 2, 0,
     "ccc4e439c4fb8391222dee7c1a6ecd9be7ba5f88d25f4dd38789a805ee50e593"),
    ("k1-c1", lambda: sized_masters(2, 6), 1, 1, 3,
     "7359f09bf6a7d49b92c6dcf11872f095e51834f72558506d93f3240d13a58fa4"),
    ("clusters-above-corpus", lambda: sized_masters(3, 5), 3, 9, 1,
     "6530b68dd958e1e5133519027abfd861ef5ae3ba31deee5dc51b014f0e1bb85b"),
    ("collective-free", lambda: [MasterTrace(ops=(), ranks=frozenset({0, 1})), *sized_masters(4, 6)], 2, 2, 0,
     "a270bdd608873b7efdb6f0b143196aaada10a0de0dc25945b70ccb122ab46c84"),
    ("never-a-predecessor", a2a_last_masters, 1, 1, 0,
     "aea7cdefa2dd7fc738e5647a79bf14b8dbc8887137131588afc4b3a8b9043455"),
]


@pytest.mark.parametrize("name, corpus, k_components, n_clusters, seed, digest", MODELS_SHA256)
def test_fitted_models_keep_their_bytes(name, corpus, k_components, n_clusters, seed, digest):
    text = models_to_json(fit_models(corpus(), k_components=k_components, n_clusters=n_clusters, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == digest, name


def test_a_type_never_seen_as_a_predecessor_falls_back_to_the_marginal():
    (cluster,) = fit_models(a2a_last_masters(), k_components=1, n_clusters=1, seed=0).type_model.clusters
    assert cluster.transitions[A2A.value] == cluster.type_probs
    assert cluster.transitions[AR.value] == {AG.value: 1.0}


def test_fit_models_keeps_no_master():
    masters = sized_masters(5, 6)
    alive = []  # per master after the first: whether the one before it was still alive when it was read
    refs = []

    def corpus():
        for i in range(len(masters)):
            if refs:
                alive.append(refs[-1]() is not None)
            master = masters[i]
            masters[i] = None  # only fit_models may hold it now
            refs.append(weakref.ref(master))
            yield master
            del master

    expected = models_to_json(fit_models(sized_masters(5, 6), k_components=2, n_clusters=2, seed=0))
    assert models_to_json(fit_models(corpus(), k_components=2, n_clusters=2, seed=0)) == expected
    assert alive == [False] * 5
    assert all(ref() is None for ref in refs)


def test_a_payload_sum_past_uint64_takes_the_log2_numpy_took():
    for total in (1, 2**53 - 1, 2**53, 2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1):
        assert np.log2(float(max(1, total))) == np.log2(max(1, total)), total


def test_models_json_roundtrip(rng):
    models = fit_models(corpus_masters(rng), k_components=1, n_clusters=2, seed=0)
    text = models_to_json(models)
    assert models_from_json(text) == models
    # tampered version is refused
    import json
    doc = json.loads(text)
    doc["version"] = 99
    with pytest.raises(ValueError, match="version"):
        models_from_json(json.dumps(doc))


def test_fit_models_requires_a_cluster(rng):
    for n_clusters in (0, -1):
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            fit_models(corpus_masters(rng), n_clusters=n_clusters)


def test_collective_free_masters_fit_into_a_cluster_that_draws_no_ops(rng):
    empty = MasterTrace(ops=(), ranks=frozenset({0, 1}))
    models = fit_models([corpus_masters(rng)[0], empty], k_components=1, n_clusters=2, seed=0)
    assert sorted(c.lengths for c in models.type_model.clusters) == [(0,), (30,)]
    assert models_from_json(models_to_json(models)) == models
    for seed in range(8):  # a positive op count never draws the collective-free cluster
        assert len(synthesize_master(models, SynthConfig(npus=2, seed=seed, num_ops=5)).ops) == 5

    only_empty = fit_models([empty, empty], k_components=1, n_clusters=2, seed=0)
    (cluster,) = only_empty.type_model.clusters
    assert (cluster.type_probs, cluster.transitions, cluster.lengths) == ({}, {}, (0, 0))
    assert synthesize_master(only_empty, SynthConfig(npus=2, seed=0)).ops == ()
    with pytest.raises(ValueError, match="no collectives to draw 3 ops"):
        synthesize_master(only_empty, SynthConfig(npus=2, seed=0, num_ops=3))


def test_models_json_holds_what_fit_models_could_write(rng):
    import json
    doc = json.loads(models_to_json(fit_models(corpus_masters(rng), k_components=1, n_clusters=1, seed=0)))
    (cluster,) = doc["type_model"]["clusters"]
    for field, value, message in (
        ("type_probs", {AR.value: 0.3}, "type probabilities must sum to 1"),
        ("transitions", {**cluster["transitions"], AR.value: {AR.value: 0.5}}, "transition row"),
        ("lengths", [2.5], "sequence length 2.5 is not an int"),
        ("lengths", [30, 1.0], "sequence length 1.0 is not an int"),
    ):
        changed = json.loads(json.dumps(doc))
        changed["type_model"]["clusters"][0][field] = value
        with pytest.raises(ValueError, match=message):
            models_from_json(json.dumps(changed))
    with pytest.raises(ValueError, match="sequence length 2.5"):
        ClusterModel(1.0, {AR.value: 1.0}, {AR.value: {AR.value: 1.0}}, (2.5,)).check()


def test_models_json_malformed_documents_are_value_errors():
    with pytest.raises(ValueError, match="JSON object"):
        models_from_json("[]")
    with pytest.raises(ValueError, match="type_model"):
        models_from_json('{"version": 1, "size_model": {}}')
    with pytest.raises(ValueError, match="malformed"):
        models_from_json('{"version": 1, "type_model": {"clusters": 3}, "size_model": {}}')


def iid_models(probs=None, mean_log2=12.0):
    probs = probs or {AR.value: 0.7, AG.value: 0.3}
    size_model = {t: Gmm1D((GmmComponent(1.0, mean_log2, 0.25),)) for t in probs}
    return FittedModels(CommTypeModel.memoryless(probs), size_model)


def test_synthesize_master_properties():
    cfg = SynthConfig(npus=4, seed=11, num_ops=300)
    master = synthesize_master(iid_models(), cfg)
    assert len(master) == 300
    assert master.ranks == frozenset(range(4))
    for op in master.ops:
        assert op.comm_group == "g0"
        assert op.comm_type.value in {AR.value, AG.value}
        assert op.participants == frozenset(range(4))
        for size in op.sizes.values():
            assert size >= 4 and size % 4 == 0
    # sizes stay near the equal split at 10% jitter
    op = master.ops[0]
    total = sum(op.sizes.values())
    for size in op.sizes.values():
        assert abs(size - total / 4) <= 0.15 * total / 4


def test_synthesize_master_deterministic_per_seed():
    cfg = SynthConfig(npus=2, seed=5, num_ops=50)
    assert synthesize_master(iid_models(), cfg) == synthesize_master(iid_models(), cfg)
    other = SynthConfig(npus=2, seed=6, num_ops=50)
    assert synthesize_master(iid_models(), other) != synthesize_master(iid_models(), cfg)


def test_synthesize_master_samples_its_length_without_num_ops():
    models = FittedModels(CommTypeModel.memoryless({AR.value: 1.0}, lengths=(3, 7)), iid_models().size_model)
    assert {len(synthesize_master(models, SynthConfig(npus=2, seed=seed))) for seed in range(20)} == {3, 7}


def test_synthesize_type_mix_approaches_target():
    cfg = SynthConfig(npus=2, seed=0, num_ops=2000)
    master = synthesize_master(iid_models(), cfg)
    counts = {AR.value: 0, AG.value: 0}
    for op in master.ops:
        counts[op.comm_type.value] += 1
    empirical = {t: c / len(master) for t, c in counts.items()}
    assert total_variation(empirical, {AR.value: 0.7, AG.value: 0.3}) <= 0.05


def test_synthesized_traces_validate_and_replay():
    cfg = SynthConfig(npus=4, seed=3, num_ops=40)
    traces = synthesize(iid_models(), cfg)
    assert [t.npu_id for t in traces] == [0, 1, 2, 3]
    assert all(validate_trace(t).ok for t in traces)
    d1, d2 = near_square_dims(4)
    topo = Topology(TopologyKind.TORUS_2D, d1, d2, 62e9, 62e9)
    result = run_simulation(traces, SimConfig(topology=topo))
    assert result.makespan > 0  # drained without deadlock


def test_synthesized_sequence_differs_from_sources(rng):
    masters = corpus_masters(rng)
    models = fit_models(masters, k_components=1, n_clusters=2, seed=0)
    out = synthesize_master(models, SynthConfig(npus=2, seed=9, num_ops=30))
    signature = [(op.comm_type, tuple(sorted(op.sizes.items()))) for op in out.ops]
    for source in masters:
        assert signature != [(op.comm_type, tuple(sorted(op.sizes.items()))) for op in source.ops]


def test_synth_config_validation():
    with pytest.raises(ValueError, match="npus"):
        SynthConfig(npus=0, seed=0)
    with pytest.raises(ValueError, match="split_jitter"):
        SynthConfig(npus=2, seed=0, split_jitter=1.5)
    for num_ops in (-1, -3):
        with pytest.raises(ValueError, match="num_ops must be >= 0"):
            SynthConfig(npus=2, seed=0, num_ops=num_ops)
    assert SynthConfig(npus=2, seed=0, num_ops=0).num_ops == 0


def test_ks_statistic_refuses_an_empty_sample():
    for a, b in (([], [1.0]), ([1.0], []), ([], [])):
        with pytest.raises(ValueError, match="non-empty samples"):
            ks_statistic(a, b)


weights = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=8).filter(lambda w: sum(w) > 0)


@settings(max_examples=150, deadline=None)
@given(weights, st.integers(0, 2**32 - 1))
def test_a_scalar_type_draw_is_the_generator_choice(w, seed):
    chosen, bisected = np.random.default_rng(seed), np.random.default_rng(seed)
    p = np.array(w)
    cdf = _cdf(w)
    for _ in range(4):
        assert bisect_right(cdf, bisected.random()) == chosen.choice(len(w), p=p / p.sum())
    assert bisected.random() == chosen.random()  # both drew the same numbers


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-3, 10)), st.floats(-40, 40), st.floats(0, 25)),
             min_size=1, max_size=4).filter(lambda comps: sum(c[0] for c in comps) > 0),
    st.integers(0, 2**32 - 1),
)
def test_a_scalar_size_draw_is_the_gmm_sample(components, seed):
    gmm = Gmm1D(tuple(GmmComponent(*c) for c in components))
    sampled, bisected = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf, params = _size_sampler(gmm)
    for _ in range(4):
        assert bisected.normal(*params[bisect_right(cdf, bisected.random())]) == gmm.sample(sampled, 1)[0]
    assert bisected.random() == sampled.random()


def mixed_models():
    """Two clusters, a zero transition probability and a zero component weight; k = 1, 2 and 3 size mixtures."""
    first = ClusterModel(
        0.6,
        {AR.value: 0.5, AG.value: 0.3, RS.value: 0.2},
        {
            AR.value: {AR.value: 0.6, AG.value: 0.0, RS.value: 0.4},
            AG.value: {AR.value: 1.0},
            RS.value: {AG.value: 0.5, RS.value: 0.5},
        },
        (3, 40, 90),
    )
    second = ClusterModel(
        0.4, {A2A.value: 0.9, AR.value: 0.1}, {A2A.value: {A2A.value: 0.8, AR.value: 0.2}, AR.value: {A2A.value: 1.0}},
        (25, 60),
    )
    sizes = {
        AR.value: Gmm1D((GmmComponent(0.2, 8.0, 0.5), GmmComponent(0.5, 16.0, 2.0), GmmComponent(0.3, 24.0, 1.0))),
        AG.value: Gmm1D((GmmComponent(1.0, 12.0, 0.25),)),
        RS.value: Gmm1D((GmmComponent(0.7, 10.0, 1.0), GmmComponent(0.3, 20.0, 4.0))),
        A2A.value: Gmm1D((GmmComponent(0.0, 5.0, 1.0), GmmComponent(1.0, 18.0, 0.5))),
    }
    return FittedModels(CommTypeModel((first, second)), sizes)


# sha256 of the concatenated JSON of every synthesized rank, as numpy's per-op
# Generator.choice and Gmm1D.sample draws wrote them; the scalar draws must keep them.
SYNTHESIZED_SHA256 = [
    (iid_models, SynthConfig(npus=1, seed=4, num_ops=64, split_jitter=0.0), 64,
     "8da5193114f8fac43d67f5c21ec1a7e8f0e6e02d4638c6d55d536758d5c116b6"),
    (iid_models, SynthConfig(npus=8, seed=3, num_ops=100), 800,
     "0713c0e71570f4aba81b160552d48fe7cde7ee16cfb0227248e00a6da4be14d6"),
    (mixed_models, SynthConfig(npus=8, seed=7), 480,
     "fb1b51d3e2b9925ce0a81de31185aabf85995b0e6f91fa62a9ed45070fd92f7c"),
    (mixed_models, SynthConfig(npus=8, seed=2, num_ops=150, split_jitter=0.0), 1200,
     "0fe95599a979c97ab446ec7ae6ed90530d7f52eb69993179756e897a46883210"),
    (mixed_models, SynthConfig(npus=1, seed=11), 90,
     "ffe373f81284f5e4a7f661cb22e8383ded58119a78e93730261cc0495b1fe99c"),
]


@pytest.mark.parametrize("models, cfg, nodes, digest", SYNTHESIZED_SHA256)
def test_synthesized_ranks_keep_their_bytes(models, cfg, nodes, digest):
    traces = synthesize(models(), cfg)
    assert sum(len(t.nodes) for t in traces) == nodes
    assert hashlib.sha256("".join(map(trace_to_json, traces)).encode()).hexdigest() == digest
