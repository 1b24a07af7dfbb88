import hashlib

import pytest

from ettrace.codec import trace_to_json
from ettrace.schema import CommType, NodeType, get_attr, get_int_attr, get_str_attr
from ettrace.validate import validate_workload
from ettrace.workloads import (
    DP_STYLE_ZERO2,
    MIB,
    Parallelism,
    PRESETS,
    WorkloadSpec,
    dlrm_spec,
    generate_workload,
    mlp_dp_spec,
    mlp_mp_spec,
    preset_spec,
    transformer_spec,
)


def by_type(trace, node_type):
    return [n for n in trace.nodes if n.type is node_type]


def comm_signature(trace):
    """(type, group, size) per collective, in id order."""
    return tuple(
        (get_str_attr(n, "comm_type"), get_str_attr(n, "comm_group"), get_int_attr(n, "comm_size"))
        for n in trace.nodes
        if n.type is NodeType.COMM_COLL
    )


def test_mp_six_layers_four_npus_counts():
    traces = generate_workload(WorkloadSpec(npus=4, parallelism=Parallelism.MP, layers=6))
    assert len(traces) == 4
    for t in traces:
        comps = by_type(t, NodeType.COMP)
        colls = by_type(t, NodeType.COMM_COLL)
        assert len(comps) == 12  # 6 fwd + 6 bwd
        assert len(colls) == 12  # one activation all-reduce after every COMP
        # compute is divided by the MP degree
        assert all(get_int_attr(n, "runtime") == 250_000 for n in comps)
        assert all(get_str_attr(n, "comm_group") == "mp" for n in colls)
        assert all(get_str_attr(n, "comm_type") == "ALL_REDUCE" for n in colls)


def test_mp_chains_strictly():
    (trace,) = generate_workload(
        WorkloadSpec(npus=1, parallelism=Parallelism.MP, layers=3)
    )
    # single rank: no collectives at all, pure compute chain
    assert not by_type(trace, NodeType.COMM_COLL)
    ids = [n.id for n in trace.nodes]
    for a, b in zip(ids, ids[1:]):
        assert trace.node(b).parents == (a,)


def test_dp_keeps_full_compute_and_allreduces_grads():
    spec = WorkloadSpec(npus=4, parallelism=Parallelism.DP, layers=6)
    traces = generate_workload(spec)
    for t in traces:
        comps = by_type(t, NodeType.COMP)
        colls = by_type(t, NodeType.COMM_COLL)
        assert len(comps) == 12
        assert all(get_int_attr(n, "runtime") == spec.compute_cycles for n in comps)
        assert len(colls) == 6  # one gradient all-reduce per layer
        for c in colls:
            assert get_str_attr(c, "comm_type") == "ALL_REDUCE"
            assert get_str_attr(c, "comm_group") == "dp"
            assert get_int_attr(c, "comm_size") == spec.weight_bytes
        # gradient sync hangs off backward compute, nothing depends on it
        coll_ids = {c.id for c in colls}
        for node in t.nodes:
            assert not (set(node.parents) & coll_ids)


def test_dp_single_npu_has_no_comm():
    (trace,) = generate_workload(WorkloadSpec(npus=1, parallelism=Parallelism.DP, layers=4))
    assert not by_type(trace, NodeType.COMM_COLL)
    assert len(by_type(trace, NodeType.COMP)) == 8


def test_dp_ranks_are_symmetric():
    traces = generate_workload(WorkloadSpec(npus=4, parallelism=Parallelism.DP, layers=5))
    signatures = {comm_signature(t) for t in traces}
    assert len(signatures) == 1


def test_hybrid_dp_mp_grouping():
    spec = WorkloadSpec(npus=16, parallelism=Parallelism.DP_MP, layers=2)
    traces = generate_workload(spec)
    d1, d2 = spec.resolved_dims()
    assert (d1, d2) == (4, 4)
    groups = {get_str_attr(n, "comm_group") for t in traces for n in by_type(t, NodeType.COMM_COLL)}
    assert groups == {f"dp_row{y}" for y in range(d2)} | {f"mp_col{x}" for x in range(d1)}
    t0 = traces[0]
    mp = [n for n in by_type(t0, NodeType.COMM_COLL) if get_str_attr(n, "comm_group").startswith("mp")]
    dp = [n for n in by_type(t0, NodeType.COMM_COLL) if get_str_attr(n, "comm_group").startswith("dp")]
    assert len(mp) == 4  # per layer: fwd + bwd activation sync
    assert len(dp) == 2  # per layer: one gradient sync
    # gradients are sharded by the MP degree
    assert all(get_int_attr(n, "comm_size") == spec.weight_bytes // d2 for n in dp)
    # compute is divided by the MP degree
    comps = by_type(t0, NodeType.COMP)
    assert all(get_int_attr(n, "runtime") == round(spec.compute_cycles / d2) for n in comps)


def test_hybrid_mp_dp_uses_dim1_for_mp():
    spec = WorkloadSpec(npus=8, parallelism=Parallelism.MP_DP, layers=1, dims=(4, 2))
    traces = generate_workload(spec)
    groups = {get_str_attr(n, "comm_group") for t in traces for n in by_type(t, NodeType.COMM_COLL)}
    assert groups == {"mp_row0", "mp_row1", "dp_col0", "dp_col1", "dp_col2", "dp_col3"}
    comps = by_type(traces[0], NodeType.COMP)
    assert all(get_int_attr(n, "runtime") == round(spec.compute_cycles / 4) for n in comps)


def test_hybrid_degenerate_dims_elide_collectives():
    # mp degree 1 -> no activation sync; dp degree 1 -> no gradient sync
    spec = WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, layers=2, dims=(4, 1))
    traces = generate_workload(spec)
    types = {get_str_attr(n, "comm_type") for t in traces for n in by_type(t, NodeType.COMM_COLL)}
    assert types == {"ALL_REDUCE"}  # only the DP gradient sync remains
    spec2 = WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, layers=2, dims=(1, 4))
    traces2 = generate_workload(spec2)
    groups = {get_str_attr(n, "comm_group") for t in traces2 for n in by_type(t, NodeType.COMM_COLL)}
    assert all(g.startswith("mp") for g in groups)


def test_zero2_style_emits_rs_then_ag():
    spec = WorkloadSpec(
        npus=4, parallelism=Parallelism.DP_MP, layers=2, dims=(4, 1), dp_style=DP_STYLE_ZERO2
    )
    (t0, *_rest) = generate_workload(spec)
    colls = by_type(t0, NodeType.COMM_COLL)
    kinds = [get_str_attr(n, "comm_type") for n in colls]
    assert kinds == ["REDUCE_SCATTER", "ALL_GATHER"] * 2
    # the all-gather is chained on its reduce-scatter
    pairs = list(zip(colls[::2], colls[1::2]))
    for rs, ag in pairs:
        assert ag.parents == (rs.id,)


def test_pipeline_node_counts():
    for stages, microbatches in ((2, 4), (4, 4), (4, 2), (8, 3)):
        spec = WorkloadSpec(
            npus=stages, parallelism=Parallelism.PIPELINE, layers=2 * stages,
            microbatches=microbatches,
        )
        traces = generate_workload(spec)
        p2p = [
            n for t in traces for n in t.nodes
            if n.type in (NodeType.COMM_SEND, NodeType.COMM_RECV)
        ]
        assert len(p2p) == 4 * (stages - 1) * microbatches
        assert not any(by_type(t, NodeType.COMM_COLL) for t in traces)
        comps = [n for t in traces for n in t.nodes if n.type is NodeType.COMP]
        assert len(comps) == 2 * stages * microbatches  # fwd + bwd per stage per microbatch


def test_pipeline_tags_pair_up():
    spec = WorkloadSpec(npus=3, parallelism=Parallelism.PIPELINE, layers=3, microbatches=2)
    traces = generate_workload(spec)
    sends, recvs = {}, {}
    for t in traces:
        for n in t.nodes:
            if n.type is NodeType.COMM_SEND:
                sends[(t.npu_id, get_int_attr(n, "comm_peer"), get_attr(n, "comm_tag"))] = n
            elif n.type is NodeType.COMM_RECV:
                recvs[(get_int_attr(n, "comm_peer"), t.npu_id, get_attr(n, "comm_tag"))] = n
    assert set(sends) == set(recvs)
    for key, send in sends.items():
        assert get_int_attr(send, "comm_size") == get_int_attr(recvs[key], "comm_size")


def test_pipeline_stage_layer_split():
    spec = WorkloadSpec(npus=4, parallelism=Parallelism.PIPELINE, layers=6, compute_cycles=100)
    traces = generate_workload(spec)
    runtimes = [get_int_attr(by_type(t, NodeType.COMP)[0], "runtime") for t in traces]
    assert runtimes == [200, 200, 100, 100]  # 6 layers over 4 stages: 2,2,1,1


def test_dlrm_preset_has_embedding_all_to_all():
    spec = dlrm_spec(4)
    traces = generate_workload(spec)
    t0 = traces[0]
    a2a = [n for n in by_type(t0, NodeType.COMM_COLL) if get_str_attr(n, "comm_type") == "ALL_TO_ALL"]
    ar = [n for n in by_type(t0, NodeType.COMM_COLL) if get_str_attr(n, "comm_type") == "ALL_REDUCE"]
    assert len(a2a) == 4  # 2 embedding layers, fwd + bwd exchange each
    # embedding tables are sharded (model parallel), so only dense layers
    # carry a data-parallel gradient sync
    assert len(ar) == spec.layers - spec.embedding_layers
    # embedding compute is partitioned across ranks, dense compute is not
    emb = [n for n in by_type(t0, NodeType.COMP) if "emb" in n.name]
    dense = [n for n in by_type(t0, NodeType.COMP) if "emb" not in n.name]
    assert all(get_int_attr(n, "runtime") == round(spec.compute_cycles / 4) for n in emb)
    assert all(get_int_attr(n, "runtime") == spec.compute_cycles for n in dense)


def test_presets_generate_valid_workloads():
    for name in PRESETS:
        for npus in (1, 4) if name != "mlp-hybrid" else (4, 16):
            traces = generate_workload(preset_spec(name, npus))
            assert len(traces) == npus
            report = validate_workload(traces)
            assert report.ok, f"{name}/{npus}: {report}"
    with pytest.raises(ValueError, match="unknown preset"):
        preset_spec("nope", 4)


def test_transformer_preset_calibration_anchor():
    spec = transformer_spec(4)
    # per-layer mp traffic: fwd + bwd activation sync; dp traffic: sharded grads
    act, grad = 4 * MIB, (32 * MIB) // 2
    per_layer_comm = (2 * act + grad) / 62e9
    total_comm = spec.layers * per_layer_comm
    compute_seconds = 2 * spec.layers * spec.compute_cycles / 2 * 1e-9  # cycles at 1 ns, /mp
    assert compute_seconds == pytest.approx(25.0 * total_comm, rel=1e-3)


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        WorkloadSpec(npus=0, parallelism=Parallelism.DP).check()
    with pytest.raises(ValueError):
        WorkloadSpec(npus=4, parallelism=Parallelism.DP, layers=0).check()
    with pytest.raises(ValueError):
        WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, dims=(3, 2)).check()
    with pytest.raises(ValueError):
        WorkloadSpec(npus=4, parallelism=Parallelism.MP, embedding_layers=1).check()
    with pytest.raises(ValueError):
        WorkloadSpec(npus=4, parallelism=Parallelism.DP, dp_style="zero9").check()
    with pytest.raises(ValueError):
        WorkloadSpec(npus=4, parallelism=Parallelism.PIPELINE, microbatches=0).check()


def test_all_workloads_validate(rng):
    for _ in range(20):
        parallelism = rng.choice(list(Parallelism))
        npus = rng.choice([1, 2, 4, 8]) if parallelism is not Parallelism.PIPELINE else rng.choice([2, 4])
        spec = WorkloadSpec(
            npus=npus,
            parallelism=parallelism,
            layers=rng.randint(1, 8),
            compute_cycles=rng.randint(1, 10**6),
            weight_bytes=rng.randint(1, 10**8),
            activation_bytes=rng.randint(1, 10**8),
            microbatches=rng.randint(1, 6),
        )
        traces = generate_workload(spec)
        assert validate_workload(traces).ok


# Small non-preset specs and the sha256 of their concatenated
# ``trace_to_json`` output, recorded before the layered schemes shared one
# generator. They pin the quirks the presets do not reach: DP ignores
# ``dp_style`` and syncs the full ``weight_bytes`` (0 stays 0), the hybrids
# send at least one byte, DP embedding layers, swapped dims and one NPU.
PINNED_SPECS = {
    "dp_mp-zero2-6npu": WorkloadSpec(npus=6, parallelism=Parallelism.DP_MP, layers=3, dp_style=DP_STYLE_ZERO2),
    "mp_dp-zero2-6npu": WorkloadSpec(npus=6, parallelism=Parallelism.MP_DP, layers=2, dp_style=DP_STYLE_ZERO2),
    "dp_mp-zero2-swapped": WorkloadSpec(npus=6, parallelism=Parallelism.DP_MP, layers=2, dims=(2, 3), dp_style=DP_STYLE_ZERO2),
    "mp_dp-allreduce-swapped": WorkloadSpec(npus=6, parallelism=Parallelism.MP_DP, layers=2, dims=(2, 3)),
    "dp_mp-allreduce-1x4": WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, layers=2, dims=(1, 4)),
    "mp_dp-zero2-4x1": WorkloadSpec(npus=4, parallelism=Parallelism.MP_DP, layers=2, dims=(4, 1), dp_style=DP_STYLE_ZERO2),
    "dp-emb1": WorkloadSpec(npus=4, parallelism=Parallelism.DP, layers=3, embedding_layers=1),
    "dp-emb2-zero2": WorkloadSpec(npus=3, parallelism=Parallelism.DP, layers=2, embedding_layers=2, dp_style=DP_STYLE_ZERO2),
    "mp-3npu": WorkloadSpec(npus=3, parallelism=Parallelism.MP, layers=2),
    "dp-weight0": WorkloadSpec(npus=2, parallelism=Parallelism.DP, layers=2, weight_bytes=0),
    "mp_dp-weight0": WorkloadSpec(npus=4, parallelism=Parallelism.MP_DP, layers=2, weight_bytes=0),
    "dp_mp-zero2-weight5": WorkloadSpec(npus=4, parallelism=Parallelism.DP_MP, layers=1, weight_bytes=5, dp_style=DP_STYLE_ZERO2),
    "dp-1npu-emb1": WorkloadSpec(npus=1, parallelism=Parallelism.DP, layers=2, embedding_layers=1),
    "mp-1npu": WorkloadSpec(npus=1, parallelism=Parallelism.MP, layers=2),
    "dp_mp-1npu": WorkloadSpec(npus=1, parallelism=Parallelism.DP_MP, layers=2, dp_style=DP_STYLE_ZERO2),
    "mp_dp-1npu": WorkloadSpec(npus=1, parallelism=Parallelism.MP_DP, layers=2),
}
PINNED_DIGESTS = {
    "dp_mp-zero2-6npu": "0db55cc98ad572dbf32e1e648329ec0c39c57f17df27cb1b333aee0f556bf9be",
    "mp_dp-zero2-6npu": "3d655bc9e7130838137d47c95c52b411c879e38ad8a90f9461dbdc3d97cb5526",
    "dp_mp-zero2-swapped": "14616198f33618d7d27cff4d9bdd95daf2e984cf1639bb5273f59e61ddeda556",
    "mp_dp-allreduce-swapped": "10dc27d9f4a49d4b7896196c6908f1c4f6b2ddcc90fb93bf2edd78ce03b75219",
    "dp_mp-allreduce-1x4": "24037a8a12c9d2de1490b79094d0aada8842fe1ddf664fe75f30690eddcb181f",
    "mp_dp-zero2-4x1": "25b16c72adc6a9925a341510c735231d5776b5a631730b2515c6b3a3512b04b8",
    "dp-emb1": "6f469cbe5f5b8c028cf61957e377d329e1904eceeb016c8287b5dfd6a44543c2",
    "dp-emb2-zero2": "f794308028139743bfa387e3b947020d19b70dcc591174fafca4123a24ff3e35",
    "mp-3npu": "0ffcc3e7582e0594df1abc394172d7896790d8a5f3ae6c3798c5b509e053a6b6",
    "dp-weight0": "589aa97bdf1b17a3a2fed88c738a2ce65b88807a38b8f11822efb4b33751a47a",
    "mp_dp-weight0": "c037a1d5a471cf1e19d39382f7b3d6578231709906f2d9b54cca9188cf817a29",
    "dp_mp-zero2-weight5": "86f1b5e34c487b5a7914c57fb05c40ab591bd0819c686925c2df77f5e69db306",
    "dp-1npu-emb1": "7eda9a398575c46ab6f1368c82cb76b3db129f6cf9ce8bbef1cc43970e22a26a",
    "mp-1npu": "067f83ed0bfe76c7c5e35a0c353b7964ff5a8f7ff2c6e49aae2de15f78c1c4b5",
    "dp_mp-1npu": "067f83ed0bfe76c7c5e35a0c353b7964ff5a8f7ff2c6e49aae2de15f78c1c4b5",
    "mp_dp-1npu": "067f83ed0bfe76c7c5e35a0c353b7964ff5a8f7ff2c6e49aae2de15f78c1c4b5",
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generator_output_matches_pinned_digest(name):
    traces = generate_workload(PINNED_SPECS[name])
    digest = hashlib.sha256("".join(trace_to_json(t) for t in traces).encode()).hexdigest()
    assert digest == PINNED_DIGESTS[name]


def test_spec_refuses_short_compute_negative_bytes_and_extra_embedding_layers():
    for spec, message in (
        (WorkloadSpec(npus=4, parallelism=Parallelism.DP, compute_cycles=0), "compute_cycles must be >= 1"),
        (WorkloadSpec(npus=4, parallelism=Parallelism.DP, weight_bytes=-1), "byte sizes must be >= 0"),
        (WorkloadSpec(npus=4, parallelism=Parallelism.DP, activation_bytes=-1), "byte sizes must be >= 0"),
        (WorkloadSpec(npus=4, parallelism=Parallelism.DP, layers=2, embedding_layers=3),
         "embedding_layers must be within"),
    ):
        with pytest.raises(ValueError, match=message):
            spec.check()
