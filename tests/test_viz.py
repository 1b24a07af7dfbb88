import json

import pytest
from hypothesis import given, settings, strategies as st

from ettrace.builder import TraceBuilder
from ettrace.costmodel import parse_topology
from ettrace.schema import ETNode, NodeType, Trace, make_attributes
from ettrace.simulator import SimConfig, run_simulation
from ettrace.viz import (
    TID_COMM,
    TID_COMPUTE,
    TID_MEMORY,
    TimelineError,
    TimelineRow,
    emit_dot,
    emit_timeline_csv,
    node_type_lookup,
    parse_timeline_csv,
    timeline_to_chrome_events,
    timeline_to_chrome_trace,
)
from ettrace.workloads import PRESETS, generate_workload, preset_spec


def test_dot_empty_trace():
    assert emit_dot(Trace(0, ())) == "digraph et { }\n"


def test_dot_two_node_chain():
    b = TraceBuilder(0)
    a = b.comp("fwd", 5)
    b.comp("bwd", 5, parents=[a])
    text = emit_dot(b.build())
    assert text == (
        "digraph et {\n"
        '  1 [label="fwd"];\n'
        '  2 [label="bwd"];\n'
        "  1 -> 2;\n"
        "}\n"
    )


def test_dot_escapes_quotes_and_backslashes():
    trace = Trace(0, (ETNode(1, 'say "hi" \\ bye', NodeType.COMP, attributes=()),))
    text = emit_dot(trace, graph_name="g")
    assert text.startswith("digraph g {")
    assert 'label="say \\"hi\\" \\\\ bye"' in text


def test_dot_duplicate_parent_edges_collapse():
    trace = Trace(0, (
        ETNode(1, "a", NodeType.COMP),
        ETNode(2, "b", NodeType.COMP, parents=(1, 1)),
    ))
    assert emit_dot(trace, graph_name="g").count("1 -> 2;") == 1


def rows():
    return [
        TimelineRow("issue", 0, 0, 1, "ld, with comma"),
        TimelineRow("callback", 0, 7, 1, "ld, with comma"),
    ]


def test_timeline_csv_roundtrip_with_commas_in_name():
    text = emit_timeline_csv(rows())
    assert text == "issue,[0],[0],[1],[ld, with comma]\ncallback,[0],[7],[1],[ld, with comma]\n"
    assert parse_timeline_csv(text) == rows()


def test_timeline_csv_empty():
    assert emit_timeline_csv([]) == ""
    assert parse_timeline_csv("") == []
    assert parse_timeline_csv("\n  \n") == []


def test_timeline_parse_errors_name_line_numbers():
    with pytest.raises(TimelineError, match="line 1: expected 5 fields"):
        parse_timeline_csv("issue,[0],[1]")
    with pytest.raises(TimelineError, match="line 2: unknown event 'boop'"):
        parse_timeline_csv("issue,[0],[0],[1],[a]\nboop,[0],[0],[1],[a]")
    with pytest.raises(TimelineError, match=r"line 1: cycle field '3' is not bracketed"):
        parse_timeline_csv("issue,[0],3,[1],[a]")
    with pytest.raises(TimelineError, match="line 1: non-integer"):
        parse_timeline_csv("issue,[0],[x],[1],[a]")


def lookup_for(node_type):
    return lambda gpu, node: node_type


def test_chrome_event_shape():
    events = timeline_to_chrome_events(rows(), lookup_for(NodeType.MEM_LOAD))
    assert events == [
        {"name": "ld, with comma", "ph": "X", "pid": 0, "tid": TID_MEMORY, "ts": 0, "dur": 7}
    ]


def test_chrome_tid_mapping():
    expect = {
        NodeType.MEM_LOAD: TID_MEMORY,
        NodeType.MEM_STORE: TID_MEMORY,
        NodeType.COMP: TID_COMPUTE,
        NodeType.COMM_SEND: TID_COMM,
        NodeType.COMM_RECV: TID_COMM,
        NodeType.COMM_COLL: TID_COMM,
    }
    assert (TID_MEMORY, TID_COMPUTE, TID_COMM) == (1, 2, 3)
    for node_type, tid in expect.items():
        events = timeline_to_chrome_events(rows(), lookup_for(node_type))
        assert events[0]["tid"] == tid


def test_chrome_invalid_type_rejected():
    with pytest.raises(TimelineError, match="untimeable type INVALID"):
        timeline_to_chrome_events(rows(), lookup_for(NodeType.INVALID))


def test_chrome_pairing_errors():
    issue = TimelineRow("issue", 0, 0, 1, "a")
    with pytest.raises(TimelineError, match="issued twice"):
        timeline_to_chrome_events([issue, issue], lookup_for(NodeType.COMP))
    with pytest.raises(TimelineError, match="callback without issue"):
        timeline_to_chrome_events([TimelineRow("callback", 0, 5, 1, "a")], lookup_for(NodeType.COMP))
    with pytest.raises(TimelineError, match="callback precedes issue"):
        timeline_to_chrome_events(
            [TimelineRow("issue", 0, 9, 1, "a"), TimelineRow("callback", 0, 5, 1, "a")],
            lookup_for(NodeType.COMP),
        )
    with pytest.raises(TimelineError, match=r"without callbacks .*\(0, 1\)"):
        timeline_to_chrome_events([issue], lookup_for(NodeType.COMP))


def test_chrome_same_node_id_on_two_gpus_is_fine():
    rows_ = [
        TimelineRow("issue", 0, 0, 1, "a"),
        TimelineRow("issue", 1, 0, 1, "b"),
        TimelineRow("callback", 1, 3, 1, "b"),
        TimelineRow("callback", 0, 4, 1, "a"),
    ]
    events = timeline_to_chrome_events(rows_, lookup_for(NodeType.COMP))
    assert [(e["pid"], e["dur"]) for e in events] == [(1, 3), (0, 4)]


def test_node_type_lookup_from_traces():
    b = TraceBuilder(3)
    b.comp("mm", 5)
    type_of = node_type_lookup([b.build()])
    assert type_of(3, 1) is NodeType.COMP
    with pytest.raises(TimelineError, match="no node 9 on gpu 3"):
        type_of(3, 9)


def test_chrome_trace_json_text():
    text = timeline_to_chrome_trace(rows(), lookup_for(NodeType.COMP))
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), indent=1) + "\n"
    parsed = json.loads(text)
    assert isinstance(parsed, list) and len(parsed) == 1
    assert parsed[0]["ph"] == "X"


def _chrome_by_json_dumps(rows_, type_of):
    return json.dumps(timeline_to_chrome_events(rows_, type_of), indent=1) + "\n"


@pytest.mark.parametrize("name", ["", "né☃😀", 'say "hi"', "back\\slash", "tab\tnl\n\x00"])
def test_chrome_text_is_json_dumps_for_any_name(name):
    rows_ = [TimelineRow("issue", 0, 0, 1, name), TimelineRow("callback", 0, 7, 1, name)]
    assert timeline_to_chrome_trace(rows_, lookup_for(NodeType.COMP)) == _chrome_by_json_dumps(
        rows_, lookup_for(NodeType.COMP)
    )


def test_chrome_text_of_an_empty_timeline():
    assert timeline_to_chrome_trace([], lookup_for(NodeType.COMP)) == _chrome_by_json_dumps([], None) == "[]\n"


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_chrome_text_is_json_dumps_for_every_preset(preset):
    traces = generate_workload(preset_spec(preset, 8))
    result = run_simulation(traces, SimConfig(topology=parse_topology("torus2d:4x2", 62e9, 1e-6)))
    type_of = node_type_lookup(traces)
    assert timeline_to_chrome_trace(result.timeline, type_of) == _chrome_by_json_dumps(result.timeline, type_of)


_NAMES = st.text(alphabet="ab, é☃[]", max_size=6)


@st.composite
def _replayable_workloads(draw):
    """1-3 ranks of random DAGs over COMP/MEM nodes with INVALID chains spliced
    in, plus the same chain of collectives on every rank, so replay finishes."""
    colls = draw(st.lists(st.sampled_from(["ALL_REDUCE", "ALL_GATHER"]), max_size=3))
    traces = []
    for npu in range(draw(st.integers(1, 3))):
        nodes = []
        for _ in range(draw(st.integers(0, 8))):
            node_id = len(nodes) + 1
            parents = tuple(draw(st.sets(st.integers(1, node_id - 1), max_size=2))) if node_id > 1 else ()
            if draw(st.booleans()):
                node_type = draw(st.sampled_from([NodeType.COMP, NodeType.MEM_LOAD, NodeType.MEM_STORE]))
                attrs = {"runtime": draw(st.integers(0, 20))}
            else:
                node_type, attrs = NodeType.INVALID, {}
            nodes.append(ETNode(node_id, draw(_NAMES), node_type, tuple(sorted(parents)), make_attributes(attrs)))
            for _ in range(draw(st.integers(0, 3)) if node_type is NodeType.INVALID else 0):
                nodes.append(ETNode(len(nodes) + 1, draw(_NAMES), NodeType.INVALID, (len(nodes),)))
        for comm_type in colls:
            parents = (len(nodes),) if nodes else ()
            attrs = {"comm_type": comm_type, "comm_size": draw(st.integers(0, 4096)), "comm_group": "g"}
            nodes.append(ETNode(len(nodes) + 1, draw(_NAMES), NodeType.COMM_COLL, parents, make_attributes(attrs)))
        traces.append(Trace(npu, tuple(nodes)))
    return traces


@settings(max_examples=150, deadline=None)
@given(_replayable_workloads())
def test_records_and_timeline_rows_give_the_same_outputs(traces):
    result = run_simulation(traces, SimConfig(topology=parse_topology("torus2d:2x2", 1e9, 1e-6)))
    timeline = result.timeline
    assert {(gpu, node) for _, gpu, _, node, _ in result.records} == {
        (t.npu_id, n.id) for t in traces for n in t.nodes if n.type is not NodeType.INVALID
    }
    assert result.timeline_csv() == emit_timeline_csv(timeline)
    assert parse_timeline_csv(result.timeline_csv()) == timeline
    type_of = node_type_lookup(traces)
    assert timeline_to_chrome_trace(result.records, type_of) == timeline_to_chrome_trace(timeline, type_of)
    for row, record in zip(timeline, result.records, strict=True):
        event, gpu_id, cycle, node_id, node_name = row
        assert type(row) is TimelineRow and (event, gpu_id, cycle, node_id, node_name) == record
        assert (row.event, row.gpu_id, row.cycle, row.node_id, row.node_name) == record
        assert repr(row) == (
            f"TimelineRow(event={event!r}, gpu_id={gpu_id!r}, cycle={cycle!r}, node_id={node_id!r}, "
            f"node_name={node_name!r})"
        )
