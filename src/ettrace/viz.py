"""Human-readable views of traces and replay timelines.

* Graphviz DOT text for a single trace (node names + dependency edges).
* The replay timeline CSV format (``issue``/``callback`` rows).
* Conversion of a timeline into Chrome trace-viewer JSON, where each
  issue/callback pair becomes one complete ("X") event.

Timeline functions read rows by position, so they take ``TimelineRow``s and
replay's plain ``(event, gpu_id, cycle, node_id, node_name)`` records alike.
"""
from __future__ import annotations

import json
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .schema import NodeType, Trace

_json_str = json.encoder.encode_basestring_ascii

ISSUE = "issue"
CALLBACK = "callback"

# Chrome trace rows: one lane per resource class on every process (= GPU).
TID_MEMORY = 1
TID_COMPUTE = 2
TID_COMM = 3

_TID_FOR_TYPE = {
    NodeType.MEM_LOAD: TID_MEMORY,
    NodeType.MEM_STORE: TID_MEMORY,
    NodeType.COMP: TID_COMPUTE,
    NodeType.COMM_SEND: TID_COMM,
    NodeType.COMM_RECV: TID_COMM,
    NodeType.COMM_COLL: TID_COMM,
}


class TimelineError(ValueError):
    pass


class TimelineRow(NamedTuple):
    event: str  # ISSUE or CALLBACK
    gpu_id: int
    cycle: int
    node_id: int
    node_name: str


def timeline_csv_lines(rows: Iterable[TimelineRow]) -> Iterator[str]:
    """One newline-terminated CSV line per row."""
    return (f"{event},[{gpu}],[{cycle}],[{node}],[{name}]\n" for event, gpu, cycle, node, name in rows)


def emit_timeline_csv(rows: Iterable[TimelineRow]) -> str:
    return "".join(timeline_csv_lines(rows))


def _unbracket(field: str, what: str, line_no: int) -> str:
    field = field.strip()
    if not (field.startswith("[") and field.endswith("]")):
        raise TimelineError(f"line {line_no}: {what} field {field!r} is not bracketed")
    return field[1:-1]


def parse_timeline_csv(text: str) -> list[TimelineRow]:
    """Rows of the CSV that ``timeline_csv_lines`` writes; only ``"\\n"`` ends a line."""
    rows: list[TimelineRow] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split(",", 4)  # node names may contain commas
        if len(parts) != 5:
            raise TimelineError(f"line {line_no}: expected 5 fields, got {len(parts)}")
        event = parts[0].strip()
        if event not in (ISSUE, CALLBACK):
            raise TimelineError(f"line {line_no}: unknown event {event!r}")
        try:
            gpu = int(_unbracket(parts[1], "gpu_id", line_no))
            cycle = int(_unbracket(parts[2], "cycle", line_no))
            node = int(_unbracket(parts[3], "node_id", line_no))
        except ValueError as exc:
            if isinstance(exc, TimelineError):
                raise
            raise TimelineError(f"line {line_no}: non-integer field ({exc})") from None
        name = _unbracket(parts[4], "node_name", line_no)
        rows.append(TimelineRow(event, gpu, cycle, node, name))
    return rows


# --------------------------------------------------------------------------
# DOT
# --------------------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def emit_dot(trace: Trace, graph_name: str = "et") -> str:
    """Graphviz text: one statement per node (labeled with its name) and edge."""
    nodes = sorted(trace.nodes, key=lambda n: n.id)
    if not nodes:
        return f"digraph {graph_name} {{ }}\n"
    lines = [f"digraph {graph_name} {{"]
    for node in nodes:
        lines.append(f'  {node.id} [label="{_dot_escape(node.name)}"];')
    for node in nodes:
        for pid in sorted(set(node.parents)):
            lines.append(f"  {pid} -> {node.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Chrome trace viewer
# --------------------------------------------------------------------------

TypeLookup = Callable[[int, int], NodeType]
LaneLookup = Callable[[int, int], int]  # (gpu_id, node_id) -> Chrome tid


def node_type_lookup(traces: "Sequence[Trace] | Iterable[Trace]") -> TypeLookup:
    """Build a (gpu_id, node_id) -> NodeType lookup from per-NPU traces."""
    table: dict[int, dict[int, NodeType]] = {}  # gpu -> node -> type
    for trace in traces:
        table.setdefault(trace.npu_id, {}).update((node.id, node.type) for node in trace.nodes)

    def type_of(gpu_id: int, node_id: int) -> NodeType:
        try:
            return table[gpu_id][node_id]
        except KeyError:
            raise TimelineError(f"no node {node_id} on gpu {gpu_id} in the given traces") from None

    return type_of


def type_lanes(type_of: TypeLookup) -> LaneLookup:
    """The lane of each node's type; TimelineError for a type no lane times."""

    def lane_of(gpu_id: int, node_id: int) -> int:
        node_type = type_of(gpu_id, node_id)
        tid = _TID_FOR_TYPE.get(node_type)
        if tid is None:
            raise TimelineError(f"node {node_id} on gpu {gpu_id} has untimeable type {node_type.name}")
        return tid

    return lane_of


def _complete_events(rows: Iterable[TimelineRow], lane_of: LaneLookup) -> "Iterator[tuple[str, int, int, int, int]]":
    """(name, pid, tid, ts, dur) of each issue/callback pair, in callback order.

    Every issue needs a later callback for the same (gpu, node) and vice
    versa; leftovers mean the timeline is truncated or corrupt and raise.
    """
    open_issues: dict[tuple[int, int], tuple[int, str]] = {}  # (gpu, node) -> (issue cycle, name)
    for event, gpu_id, cycle, node_id, node_name in rows:
        key = (gpu_id, node_id)
        if event == ISSUE:
            if key in open_issues:
                raise TimelineError(f"node {node_id} on gpu {gpu_id} issued twice without callback")
            open_issues[key] = (cycle, node_name)
        else:
            issue = open_issues.pop(key, None)
            if issue is None:
                raise TimelineError(f"callback without issue for node {node_id} on gpu {gpu_id}")
            issue_cycle, issue_name = issue
            if cycle < issue_cycle:
                raise TimelineError(f"node {node_id} on gpu {gpu_id}: callback precedes issue")
            yield issue_name, gpu_id, lane_of(gpu_id, node_id), issue_cycle, cycle - issue_cycle
    if open_issues:
        missing = sorted(open_issues)
        raise TimelineError(f"issue rows without callbacks for (gpu, node) pairs: {missing}")


def timeline_to_chrome_events(rows: Sequence[TimelineRow], type_of: TypeLookup) -> list[dict]:
    """Pair issue/callback rows into complete events, one per pair; ts/dur are
    in cycles, which the viewer renders as microseconds."""
    return [
        {"name": name, "ph": "X", "pid": pid, "tid": tid, "ts": ts, "dur": dur}
        for name, pid, tid, ts, dur in _complete_events(rows, type_lanes(type_of))
    ]


def chrome_trace_chunks(rows: Iterable[TimelineRow], lane_of: LaneLookup) -> Iterator[str]:
    """The text of ``timeline_to_chrome_trace``, one event at a time; ``lane_of`` gives each node's tid."""
    sep = "[\n "
    for name, pid, tid, ts, dur in _complete_events(rows, lane_of):
        yield (
            f'{sep}{{\n  "name": {_json_str(name)},\n  "ph": "X",\n  "pid": {pid},\n  "tid": {tid},'
            f'\n  "ts": {ts},\n  "dur": {dur}\n }}'
        )
        sep = ",\n "
    yield "[]\n" if sep == "[\n " else "\n]\n"


def timeline_to_chrome_trace(rows: Sequence[TimelineRow], type_of: TypeLookup) -> str:
    """JSON text (array-of-events form) for the Chrome trace viewer.

    Exactly ``json.dumps(timeline_to_chrome_events(rows, type_of), indent=1) + "\\n"``
    for rows of str names and int fields, as replay and ``parse_timeline_csv``
    make them. Written directly, because ``indent`` turns off json's C encoder.
    """
    return "".join(chrome_trace_chunks(rows, type_lanes(type_of)))
