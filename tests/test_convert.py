import hashlib
import logging
import random
from collections import defaultdict, deque

import pytest

from ettrace.codec import trace_to_json
from ettrace.convert import (
    ConvertError,
    DotParseError,
    GlobalNode,
    convert_flexflow,
    convert_pytorch,
    convert_pytorch_json,
    split_per_npu,
)
from ettrace.schema import (
    ATTR_COMM_PEER,
    ATTR_COMM_SIZE,
    ATTR_COMM_TAG,
    CommType,
    NodeType,
    get_int_attr,
    get_str_attr,
    make_attributes,
)
from ettrace.validate import validate_trace

from conftest import random_dag_parents


def pt_node(node_id, name, deps=(), npu=0, **extra):
    return {"id": node_id, "name": name, "ctrl_deps": list(deps), "npu": npu, **extra}


def pt_doc(*nodes):
    return {"nodes": list(nodes)}


def by_name(trace):
    return {n.name: n for n in trace.nodes}


def test_pytorch_dur_becomes_comp_runtime():
    doc = pt_doc(pt_node(1, "aten::mm", dur=50), pt_node(2, "aten::relu", deps=[1], dur=7.4))
    (trace,) = convert_pytorch(doc)
    mm = by_name(trace)["aten::mm"]
    assert mm.type is NodeType.COMP
    assert get_int_attr(mm, "runtime") == 50
    assert get_int_attr(by_name(trace)["aten::relu"], "runtime") == 7  # rounds
    assert by_name(trace)["aten::relu"].parents == (1,)
    assert validate_trace(trace).ok


def test_pytorch_cycles_per_us_scales_runtime():
    doc = pt_doc(pt_node(1, "aten::mm", dur=50))
    (trace,) = convert_pytorch(doc, cycles_per_us=2.5)
    assert get_int_attr(trace.node(1), "runtime") == 125


def test_pytorch_record_param_comms_reads_nccl_child():
    doc = pt_doc(
        pt_node(1, "record_param_comms"),
        pt_node(2, "nccl:all_reduce", deps=[1], size=4194304, pg="dp"),
        pt_node(3, "aten::relu", deps=[2], dur=1),
    )
    (trace,) = convert_pytorch(doc)
    comm = trace.node(1)
    assert comm.type is NodeType.COMM_COLL
    assert get_str_attr(comm, "comm_type") == CommType.ALL_REDUCE.value
    assert get_int_attr(comm, "comm_size") == 4194304
    assert get_str_attr(comm, "comm_group") == "dp"
    # the consumed child stays as a dependency-transparent placeholder
    child = trace.node(2)
    assert child.type is NodeType.INVALID
    assert child.parents == (1,) and child.attributes == ()
    assert trace.node(3).parents == (2,)
    assert validate_trace(trace).ok


def test_pytorch_nccl_child_variants():
    for suffix, comm_type in [
        ("all_gather", CommType.ALL_GATHER),
        ("reduce_scatter", CommType.REDUCE_SCATTER),
        ("all_to_all", CommType.ALL_TO_ALL),
    ]:
        doc = pt_doc(
            pt_node(1, "record_param_comms"),
            pt_node(2, f"nccl:{suffix}", deps=[1], size=64, pg=3),
        )
        (trace,) = convert_pytorch(doc)
        assert get_str_attr(trace.node(1), "comm_type") == comm_type.value
        assert get_str_attr(trace.node(1), "comm_group") == "3"  # non-string pg coerced


def test_pytorch_uninterpretable_comm_stays_invalid(caplog):
    doc = pt_doc(
        pt_node(1, "record_param_comms"),
        pt_node(2, "custom:reduce", deps=[1], size=64),
    )
    with caplog.at_level(logging.WARNING, logger="ettrace.convert"):
        (trace,) = convert_pytorch(doc)
    assert trace.node(1).type is NodeType.INVALID
    assert "no interpretable nccl child" in caplog.text


def test_pytorch_comm_without_children_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="ettrace.convert"):
        (trace,) = convert_pytorch(pt_doc(pt_node(1, "record_param_comms")))
    assert trace.node(1).type is NodeType.INVALID
    assert "kept as INVALID" in caplog.text


def test_pytorch_nccl_child_without_size_warns(caplog):
    doc = pt_doc(
        pt_node(1, "record_param_comms"),
        pt_node(2, "nccl:all_reduce", deps=[1], size="big"),
    )
    with caplog.at_level(logging.WARNING, logger="ettrace.convert"):
        (trace,) = convert_pytorch(doc)
    assert trace.node(1).type is NodeType.INVALID
    assert "lacks a usable size" in caplog.text


def test_pytorch_unannotated_node_becomes_invalid():
    (trace,) = convert_pytorch(pt_doc(pt_node(1, "[pytorch|profiler|execution_graph]")))
    assert trace.node(1).type is NodeType.INVALID


def test_pytorch_malformed_documents():
    for doc, msg, *cycles_per_us in [
        ([], "'nodes' array"),
        ({"nodes": 3}, "'nodes' array"),
        ({"nodes": ["x"]}, "not an object"),
        (pt_doc({"name": "a", "ctrl_deps": []}), "integer id"),
        (pt_doc(pt_node(1, "a"), pt_node(1, "b")), "duplicate node id 1"),
        (pt_doc({"id": 1, "name": 7}), "string name"),
        (pt_doc(pt_node(1, "a", deps=["x"])), "list of ids"),
        (pt_doc(pt_node(1, "a", deps=[9])), "unknown ctrl_dep 9"),
        (pt_doc(pt_node(1, "a", npu="gpu0")), "npu must be an integer"),
        (pt_doc(pt_node(1, "a"), pt_node(2, "b", dur=float("inf"))), "node 2: dur"),
        (pt_doc(pt_node(3, "a", dur=float("nan"))), "node 3: dur"),
        (pt_doc(pt_node(4, "a", dur=10**400)), "node 4: dur"),
        (pt_doc(pt_node(5, "a", dur=1e300)), "node 5: dur", 1e300),
        (pt_doc(pt_node(1, "a", dur=1)), "cycles_per_us must be positive and finite, got -1", -1),
        (pt_doc(pt_node(1, "a", dur=1)), "cycles_per_us must be positive and finite, got 0", 0),
        (pt_doc(pt_node(1, "a", dur=1)), "cycles_per_us must be positive and finite, got inf", float("inf")),
        (pt_doc(pt_node(1, "a", dur=1)), "cycles_per_us must be positive and finite, got nan", float("nan")),
    ]:
        with pytest.raises(ConvertError, match=msg.replace("[", r"\[").replace("]", r"\]").replace("'", "'")):
            convert_pytorch(doc, *cycles_per_us)


def test_pytorch_json_entry_point():
    traces = convert_pytorch_json('{"nodes": [{"id": 1, "name": "aten::mm", "dur": 3}]}')
    assert traces[0].node(1).type is NodeType.COMP
    with pytest.raises(ConvertError, match="not valid JSON"):
        convert_pytorch_json("{nope")


def gnode(node_id, npu, parents=(), node_type=NodeType.COMP, attrs=None, name=None):
    return GlobalNode(
        id=node_id,
        name=name or f"n{node_id}",
        type=node_type,
        parents=tuple(parents),
        attributes=make_attributes(attrs or {"runtime": 1}),
        npu=npu,
    )


def test_split_keeps_same_npu_edges():
    traces = split_per_npu([gnode(1, 0), gnode(2, 0, parents=[1])])
    assert len(traces) == 1
    assert traces[0].node(2).parents == (1,)


def test_split_cross_npu_edge_becomes_tagged_pair():
    traces = split_per_npu([
        gnode(1, 0, attrs={"runtime": 1, "tensor_size": 2048}),
        gnode(2, 1, parents=[1]),
    ])
    t0, t1 = traces
    assert (t0.npu_id, t1.npu_id) == (0, 1)
    send = next(n for n in t0.nodes if n.type is NodeType.COMM_SEND)
    recv = next(n for n in t1.nodes if n.type is NodeType.COMM_RECV)
    assert send.parents == (1,)
    assert get_int_attr(send, ATTR_COMM_PEER) == 1
    assert get_int_attr(recv, ATTR_COMM_PEER) == 0
    assert get_int_attr(send, ATTR_COMM_SIZE) == get_int_attr(recv, ATTR_COMM_SIZE) == 2048
    assert get_int_attr(send, ATTR_COMM_TAG) == get_int_attr(recv, ATTR_COMM_TAG)
    assert t1.node(2).parents == (recv.id,)
    assert validate_trace(t0).ok and validate_trace(t1).ok


def test_split_reuses_pair_for_same_source_and_target_npu():
    traces = split_per_npu([
        gnode(1, 0),
        gnode(2, 1, parents=[1]),
        gnode(3, 1, parents=[1]),
        gnode(4, 2, parents=[1]),
    ])
    t0 = traces[0]
    sends = [n for n in t0.nodes if n.type is NodeType.COMM_SEND]
    assert len(sends) == 2  # one per target NPU, not per child
    t1 = traces[1]
    recv_ids = {n.id for n in t1.nodes if n.type is NodeType.COMM_RECV}
    assert len(recv_ids) == 1
    assert t1.node(2).parents == t1.node(3).parents == (next(iter(recv_ids)),)


def test_split_fresh_tags_avoid_existing_ones():
    nodes = [
        gnode(1, 0, node_type=NodeType.COMM_SEND,
              attrs={"comm_size": 8, "comm_peer": 1, "comm_tag": 41}),
        gnode(2, 1, node_type=NodeType.COMM_RECV,
              attrs={"comm_size": 8, "comm_peer": 0, "comm_tag": 41}),
        gnode(3, 0),
        gnode(4, 1, parents=[3]),
    ]
    traces = split_per_npu(nodes)
    new_send = next(n for n in traces[0].nodes if n.type is NodeType.COMM_SEND and n.id != 1)
    assert get_int_attr(new_send, ATTR_COMM_TAG) == 42


def test_split_input_errors():
    with pytest.raises(ConvertError, match="no NPU assignment"):
        split_per_npu([GlobalNode(1, "a", NodeType.COMP, (), (), None)])
    with pytest.raises(ConvertError, match="duplicate global node id"):
        split_per_npu([gnode(1, 0), gnode(1, 0)])
    with pytest.raises(ConvertError, match="unknown parent 9"):
        split_per_npu([gnode(1, 0, parents=[9])])


def _pairing_adjacency(traces):
    adj = defaultdict(set)
    sends, recvs = {}, {}
    for trace in traces:
        for node in trace.nodes:
            key = (trace.npu_id, node.id)
            for pid in node.parents:
                adj[(trace.npu_id, pid)].add(key)
            if node.type is NodeType.COMM_SEND:
                sends[(trace.npu_id, get_int_attr(node, ATTR_COMM_PEER), get_int_attr(node, ATTR_COMM_TAG))] = key
            elif node.type is NodeType.COMM_RECV:
                recvs[(get_int_attr(node, ATTR_COMM_PEER), trace.npu_id, get_int_attr(node, ATTR_COMM_TAG))] = key
    assert set(sends) == set(recvs)  # every send has its tagged receive
    for link, send_key in sends.items():
        adj[send_key].add(recvs[link])
    return adj


def _reaches(adj, start, goal):
    seen, queue = {start}, deque([start])
    while queue:
        cur = queue.popleft()
        if cur == goal:
            return True
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def test_split_preserves_reachability_on_random_graphs(rng):
    for _ in range(40):
        parents_map = random_dag_parents(rng, rng.randint(2, 12), edge_prob=0.35)
        placement = {nid: rng.randrange(3) for nid in parents_map}
        nodes = [
            gnode(nid, placement[nid], parents=sorted(parents_map[nid]),
                  attrs={"runtime": 1, "tensor_size": 64})
            for nid in sorted(parents_map)
        ]
        traces = split_per_npu(nodes)
        assert all(validate_trace(t).ok for t in traces)
        adj = _pairing_adjacency(traces)
        for nid, parents in parents_map.items():
            for pid in parents:
                assert _reaches(adj, (placement[pid], pid), (placement[nid], nid))


FF_BASIC = """\
digraph taskgraph {
  // two dense layers on one device
  op1 [label="Dense", cycles=500, npu=0];
  op2 [label="Dense", cycles=300, npu=0];
  op1 -> op2;
}
"""


def test_flexflow_basic_compute_chain():
    (trace,) = convert_flexflow(FF_BASIC)
    assert trace.npu_id == 0
    assert [n.type for n in trace.nodes] == [NodeType.COMP, NodeType.COMP]
    assert [get_int_attr(n, "runtime") for n in trace.nodes] == [500, 300]
    assert trace.nodes[1].parents == (trace.nodes[0].id,)
    assert validate_trace(trace).ok


FF_XFER = """\
digraph g {
  a [label="Dense", cycles=5, npu=0];
  x [label="XferP2P", src=0, dst=1, bytes=1024];
  b [label="Dense", cycles=5, npu=1];
  a -> x;
  x -> b;
}
"""


def test_flexflow_xfer_becomes_send_recv_pair():
    t0, t1 = convert_flexflow(FF_XFER)
    send = next(n for n in t0.nodes if n.type is NodeType.COMM_SEND)
    recv = next(n for n in t1.nodes if n.type is NodeType.COMM_RECV)
    assert send.name == "x_send" and recv.name == "x_recv"
    assert get_int_attr(send, ATTR_COMM_SIZE) == get_int_attr(recv, ATTR_COMM_SIZE) == 1024
    assert get_int_attr(send, ATTR_COMM_PEER) == 1
    assert get_int_attr(recv, ATTR_COMM_PEER) == 0
    assert get_int_attr(send, ATTR_COMM_TAG) == get_int_attr(recv, ATTR_COMM_TAG)
    a = next(n for n in t0.nodes if n.name == "Dense")
    assert send.parents == (a.id,)
    b = next(n for n in t1.nodes if n.name == "Dense")
    assert b.parents == (recv.id,)
    assert validate_trace(t0).ok and validate_trace(t1).ok


def test_flexflow_memory_and_unknown_labels():
    text = (
        "digraph g {\n"
        '  ld [label="MemLoad", bytes=4096, npu=0];\n'
        '  st [label="MemStore", bytes=128, npu=0];\n'
        '  mystery [label="Fused!", npu=0];\n'
        "  bare [npu=0];\n"
        "}\n"
    )
    (trace,) = convert_flexflow(text)
    named = by_name(trace)
    assert named["MemLoad"].type is NodeType.MEM_LOAD
    assert get_int_attr(named["MemLoad"], "tensor_size") == 4096
    assert named["MemStore"].type is NodeType.MEM_STORE
    assert named["Fused!"].type is NodeType.INVALID
    assert named["bare"].type is NodeType.INVALID  # falls back to the dot id as name


def test_flexflow_duplicate_edges_and_self_edges_dropped():
    text = (
        "digraph g {\n"
        "  a [cycles=1, npu=0];\n"
        "  b [cycles=1, npu=0];\n"
        "  a -> b;\n"
        "  a -> b;\n"
        "  a -> a;\n"
        "}\n"
    )
    (trace,) = convert_flexflow(text)
    assert by_name(trace)["b"].parents == (by_name(trace)["a"].id,)
    assert by_name(trace)["a"].parents == ()


def test_flexflow_dot_ids_never_collide_with_transfer_halves():
    after = (
        "digraph g {\n"
        '  x [label="XferP2P", src=0, dst=1, bytes=8];\n'
        "  x__recv [cycles=3, npu=1];\n"
        "  y [cycles=5, npu=1];\n"
        "  x -> y;\n"
        "}\n"
    )
    _, t1 = convert_flexflow(after)
    named = by_name(t1)
    assert named["y"].parents == (named["x_recv"].id,)
    assert named["x__recv"].type is NodeType.COMP and named["x__recv"].parents == ()

    before = (
        "digraph g {\n"
        "  x__recv [cycles=3, npu=1];\n"
        '  x [label="XferP2P", src=0, dst=1, bytes=8];\n'
        "  y [cycles=5, npu=1];\n"
        "  x__recv -> y;\n"
        "}\n"
    )
    _, t1 = convert_flexflow(before)
    named = by_name(t1)
    assert named["y"].parents == (named["x__recv"].id,)
    assert {n.name for n in t1.nodes} == {"x__recv", "x_recv", "y"}


def test_flexflow_parse_errors_carry_line_numbers():
    cases = [
        ("graph g {\n}\n", 1, "expected 'digraph"),
        ("digraph g {\n  a -> b;\n}\n", 2, "undeclared node 'a'"),
        ("digraph g {\n  a [cycles=1];\n  a [cycles=2];\n}\n", 3, "declared twice"),
        ("digraph g {\n  ???;\n}\n", 2, "unparseable statement"),
        ("digraph g {\n  a [cycles=1];\n", 3, "missing closing"),
        ("digraph g {\n}\n  a [cycles=1];\n", 3, "after closing brace"),
        ("digraph g {\n  x [label=\"XferP2P\", src=0, dst=1];\n}\n", 2, "missing required attribute 'bytes'"),
        ("digraph g {\n  a [cycles=fast];\n}\n", 2, "not an integer"),
        ("", 1, "no digraph header"),
    ]
    for text, line_no, fragment in cases:
        with pytest.raises(DotParseError) as err:
            convert_flexflow(text)
        assert err.value.line_no == line_no, text
        assert fragment in str(err.value)
        assert f"line {line_no}:" in str(err.value)


def test_flexflow_accepts_strict_and_quoted_ids():
    text = (
        "strict digraph net {\n"
        '  "a" [cycles=3, npu=1];\n'
        '  "b" [cycles=4, npu=1];\n'
        '  "a" -> "b" [weight=2];\n'
        "}\n"
    )
    (trace,) = convert_flexflow(text)
    assert trace.npu_id == 1
    assert by_name(trace)["b"].parents == (by_name(trace)["a"].id,)


# sha256 of the JSON encoding of a seeded random graph split over 6 NPUs,
# recorded before the split bucketed nodes by NPU; it must never move.
SPLIT_JSON_SHA256 = "caf3f107aff6d141b486bbe3fe04102d0cbb0d1502c96a7000227d9e456285c9"


def test_split_output_matches_pinned_digest():
    rng = random.Random(0x5B117)
    parents_map = random_dag_parents(rng, 120, edge_prob=0.05)
    nodes = [
        gnode(2 * nid, rng.randrange(6), parents=[2 * pid for pid in sorted(parents_map[nid])],
              attrs={"runtime": nid, "comm_tag": nid} if nid % 10 == 0 else None)
        for nid in parents_map
    ]
    rng.shuffle(nodes)
    traces = split_per_npu(nodes)
    assert len(traces) == 6
    assert hashlib.sha256("".join(trace_to_json(t) for t in traces).encode()).hexdigest() == SPLIT_JSON_SHA256


# Seeded random converter inputs. The PyTorch documents hold self-deps,
# repeated deps, shared and badly sized nccl children, and children with lower
# ids than their parent; the DOT documents hold XferP2P, memory and unlabeled
# nodes, redeclarations, self edges and duplicate edges.
_PT_NAMES = (
    "record_param_comms", "record_param_comms", "nccl:all_reduce", "nccl:all_gather",
    "nccl:reduce_scatter", "nccl:all_to_all", "nccl:broadcast", "aten::mm", "custom",
)


def random_pytorch_doc(rng):
    """A PyTorch-subset document of 1-8 nodes and a ``cycles_per_us``."""
    ids = rng.sample(range(1, 12), rng.randint(1, 8))
    nodes = []
    for node_id in ids:
        node = {"id": node_id, "name": rng.choice(_PT_NAMES), "npu": rng.randrange(3)}
        if rng.random() < 0.8:
            node["ctrl_deps"] = rng.choices(ids + [99] * (rng.random() < 0.02), k=rng.randint(0, 3))
        for key, values in (
            ("dur", (0, 7, 7, 2.6, 2.6, -3, True, "5")),
            ("size", (0, 64, 64, 4096, 4096, 4096, -1, "big", True, 1.5)),
            ("pg", ("dp", 3)),
        ):
            if rng.random() < 0.6:
                node[key] = rng.choice(values)
        nodes.append(node)
    return {"nodes": nodes}, rng.choice((1.0, 2.5, 0.4))


def random_dot_doc(rng, ids=("a", "b", "c", "d", "e", "f", "g", "x", "y", "z")):
    """A FlexFlow-style DOT document of 1-6 declarations with edges between them."""
    lines, declared = ["digraph g {"], []
    for _ in range(rng.randint(1, 6)):
        dot_id = rng.choice(ids)
        roll = rng.random()
        if roll < 0.35:
            attrs = ['label="XferP2P"', f"src={rng.randrange(3)}", f"dst={rng.randrange(3)}"]
            attrs.append(rng.choice(("bytes=1024",) * 8 + ("bytes=0", "bytes=big", "")))
        elif roll < 0.5:
            attrs = [f'label="{rng.choice(("MemLoad", "MemStore"))}"', rng.choice(("bytes=64", ""))]
        elif roll < 0.8:
            attrs = [rng.choice(('label="Dense"', "")), rng.choice(("cycles=5",) * 8 + ("cycles=fast",))]
        else:
            attrs = [rng.choice(('label="Fused"', ""))]
        attrs.append(rng.choice(("npu=0", "npu=1", "npu=2") * 6 + ("npu=x", "")))
        lines.append(f"  {dot_id} [{', '.join(a for a in attrs if a)}];")
        declared.append(dot_id)
        for _ in range(rng.randint(0, 2)):
            dst = rng.choice(declared) if rng.random() > 0.01 else "undeclared"
            lines.append(f"  {rng.choice(declared)} -> {dst};")
    return "\n".join(lines + ["}"]) + "\n"


def convert_outcome(convert, *args):
    """``trace_to_json`` of every trace and the warnings logged, or the error raised."""
    messages = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("ettrace.convert")
    logger.addHandler(handler)
    try:
        out = "".join(trace_to_json(t) for t in convert(*args))
    except Exception as exc:  # the pin covers what each input raises
        out = f"{type(exc).__name__}: {exc}"
    finally:
        logger.removeHandler(handler)
    return "\n".join([out, *messages])


# sha256 of every outcome of 2,000 seeded random documents per dialect,
# recorded before each converter built its nodes in one pass.
CONVERT_OUTCOMES_SHA256 = {
    "pytorch": "b42c40aaa3bb9f45d28793ac9cdd2898e49a815a89fa919fe5d6079ee8e4fd67",
    "flexflow": "829f8dc15891014a29be55bb5911e9d1a17237390336262b2554a9266b8f82aa",
}


def test_converter_outcomes_match_pinned_digests():
    digests = {}
    for dialect, seed in (("pytorch", 0xC0DE), ("flexflow", 0xD07)):
        rng = random.Random(seed)
        digest = hashlib.sha256()
        for _ in range(2000):
            if dialect == "pytorch":
                outcome = convert_outcome(convert_pytorch, *random_pytorch_doc(rng))
            else:
                outcome = convert_outcome(convert_flexflow, random_dot_doc(rng))
            digest.update(outcome.encode() + b"\0")
        digests[dialect] = digest.hexdigest()
    assert digests == CONVERT_OUTCOMES_SHA256
