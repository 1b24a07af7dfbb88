import numpy as np
import pytest

from ettrace.builder import TraceBuilder
from ettrace.costmodel import Topology, TopologyKind, near_square_dims
from ettrace.schema import CommType
from ettrace.simulator import SimConfig, run_simulation
from ettrace.synth import (
    ClusterModel,
    CommTypeModel,
    FittedModels,
    Gmm1D,
    GmmComponent,
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
    # rank 0 sees g2's op first; rank 1 sees g1's op first — both orders are
    # preserved per-rank and the master interleaves by earliest (pos, rank)
    traces = [
        rank_trace(0, [(AR, "g1", 8), (AG, "g2", 8)]),
        rank_trace(1, [(AG, "g2", 8), (AR, "g1", 8)]),
    ]
    master = build_master_trace(traces)
    assert [op.comm_group for op in master.ops] == ["g1", "g2"]
    assert master.ops[0].positions == {0: 0, 1: 1}


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
    with pytest.raises(ValueError, match="at least one master"):
        fit_models([])


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
