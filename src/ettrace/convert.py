"""Converters from framework trace formats into per-NPU traces.

Two inputs are supported: a documented subset of PyTorch execution-graph
JSON, and a FlexFlow-style graphviz dialect. Both map onto a shared
intermediate — a flat list of globally-unique nodes annotated with an NPU —
which ``split_per_npu`` then cuts into per-NPU traces, turning every
cross-NPU dependency into a tagged SEND/RECV pair.
"""
from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass
from typing import Sequence

from .schema import (
    ATTR_COMM_GROUP,
    ATTR_COMM_SIZE,
    ATTR_COMM_TAG,
    ATTR_COMM_TYPE,
    ATTR_RUNTIME,
    ATTR_TENSOR_SIZE,
    Attribute,
    CommType,
    ETNode,
    NodeType,
    Trace,
    make_attributes,
    p2p_attributes,
)

logger = logging.getLogger(__name__)


class ConvertError(ValueError):
    pass


class DotParseError(ConvertError):
    def __init__(self, message: str, line_no: int):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class GlobalNode:
    """A converted node before the per-NPU split."""

    id: int
    name: str
    type: NodeType
    parents: tuple[int, ...]
    attributes: tuple[Attribute, ...]
    npu: "int | None"


# --------------------------------------------------------------------------
# Per-NPU splitting
# --------------------------------------------------------------------------


def split_per_npu(nodes: Sequence[GlobalNode]) -> list[Trace]:
    """Cut a global node list into per-NPU traces.

    Within-NPU edges survive as-is. A cross-NPU edge u(a) -> v(b) becomes a
    COMM_SEND on a (child of u) and a COMM_RECV on b (new parent of v),
    paired by a fresh shared comm tag; one pair is reused for all of u's
    children on the same target NPU.
    """
    by_id: dict[int, GlobalNode] = {}
    for node in nodes:
        if node.npu is None:
            raise ConvertError(f"node {node.id} ({node.name!r}) has no NPU assignment")
        if node.id in by_id:
            raise ConvertError(f"duplicate global node id {node.id}")
        by_id[node.id] = node
    for node in nodes:
        for pid in node.parents:
            if pid not in by_id:
                raise ConvertError(f"node {node.id} references unknown parent {pid}")

    next_id = max(by_id, default=0) + 1
    next_tag = _max_existing_tag(nodes) + 1
    extra: dict[int, list[ETNode]] = {}  # npu -> inserted SEND/RECV nodes
    new_parents: dict[int, list[int]] = {n.id: [] for n in nodes}
    pair_for: dict[tuple[int, int], int] = {}  # (source node, target npu) -> recv id

    ordered = sorted(nodes, key=lambda n: n.id)
    for node in ordered:
        for pid in node.parents:
            parent = by_id[pid]
            if parent.npu == node.npu:
                new_parents[node.id].append(pid)
                continue
            key = (pid, node.npu)
            if key not in pair_for:
                size = next((a.value for a in parent.attributes if a.name == ATTR_TENSOR_SIZE), 0)
                send_id, recv_id = next_id, next_id + 1
                next_id += 2
                tag = next_tag
                next_tag += 1
                for npu, half_id, name, half_type, half_parents, peer in (
                    (parent.npu, send_id, f"xfer_send_{pid}_to_npu{node.npu}", NodeType.COMM_SEND, (pid,), node.npu),
                    (node.npu, recv_id, f"xfer_recv_{pid}_on_npu{node.npu}", NodeType.COMM_RECV, (), parent.npu),
                ):
                    attrs = make_attributes(p2p_attributes(size, peer, tag))
                    extra.setdefault(npu, []).append(ETNode(half_id, name, half_type, half_parents, attrs))
                pair_for[key] = recv_id
            new_parents[node.id].append(pair_for[key])

    own: dict[int, list[ETNode]] = {}  # every npu in ``extra`` also holds a node
    for n in ordered:
        own.setdefault(n.npu, []).append(ETNode(n.id, n.name, n.type, tuple(new_parents[n.id]), n.attributes))
    traces = []
    for npu in sorted(own):
        npu_nodes = own[npu] + extra.get(npu, [])
        npu_nodes.sort(key=lambda n: n.id)
        traces.append(Trace(npu_id=npu, nodes=tuple(npu_nodes)))
    return traces


def _max_existing_tag(nodes: Sequence[GlobalNode]) -> int:
    tags = [
        attr.value
        for node in nodes
        for attr in node.attributes
        if attr.name == ATTR_COMM_TAG and isinstance(attr.value, int)
    ]
    return max(tags, default=0)


# --------------------------------------------------------------------------
# PyTorch execution-graph subset
# --------------------------------------------------------------------------

_NCCL_TO_TYPE = {
    "nccl:all_reduce": CommType.ALL_REDUCE,
    "nccl:all_gather": CommType.ALL_GATHER,
    "nccl:reduce_scatter": CommType.REDUCE_SCATTER,
    "nccl:all_to_all": CommType.ALL_TO_ALL,
}

RECORD_PARAM_COMMS = "record_param_comms"


def convert_pytorch(doc: dict, cycles_per_us: float = 1.0) -> list[Trace]:
    """Convert a parsed PyTorch-subset document into per-NPU traces.

    Rules: nodes with ``dur`` (microseconds) become COMP nodes with
    runtime = round(dur * cycles_per_us); ``record_param_comms`` nodes become
    COMM_COLL by reading their ``nccl:<op>`` child's ``size``/``pg`` fields
    (the child itself is kept as a dependency-transparent INVALID node);
    anything else becomes INVALID. The result is split per the ``npu`` field.
    A non-finite runtime or ``cycles_per_us`` raises ``ConvertError``.
    """
    if not 0 < cycles_per_us < math.inf:
        raise ConvertError(f"cycles_per_us must be positive and finite, got {cycles_per_us}")
    raw_nodes = _pt_nodes(doc)
    nccl_child: dict[int, dict] = {}  # node id -> its lowest-id interpretable nccl child
    for raw in raw_nodes.values():
        if raw["name"] in _NCCL_TO_TYPE:
            for dep in raw["ctrl_deps"]:
                nccl_child.setdefault(dep, raw)

    comm_attrs: dict[int, dict[str, object]] = {}  # record_param_comms id -> COMM_COLL attributes, or {}
    for node_id, raw in raw_nodes.items():
        if raw["name"] != RECORD_PARAM_COMMS:
            continue
        child = nccl_child.get(node_id)
        comm_attrs[node_id] = {}
        if child is None:
            logger.warning(
                "record_param_comms node %d has no interpretable nccl child; kept as INVALID",
                node_id,
            )
        elif not isinstance(size := child.get("size"), int) or isinstance(size, bool) or size < 0:
            logger.warning(
                "comm node %d: nccl child %d lacks a usable size; kept as INVALID",
                node_id,
                child["id"],
            )
        else:
            group = child.get("pg", "0")
            comm_attrs[node_id] = {
                ATTR_COMM_TYPE: _NCCL_TO_TYPE[child["name"]].value,
                ATTR_COMM_SIZE: size,
                ATTR_COMM_GROUP: group if isinstance(group, str) else str(group),
            }
    # Children consumed into their comm parent stay as INVALID placeholders so
    # downstream dependency paths through them remain intact.
    consumed = {nccl_child[node_id]["id"] for node_id, attrs in comm_attrs.items() if attrs}

    converted: list[GlobalNode] = []
    for node_id, raw in raw_nodes.items():
        attrs, dur = comm_attrs.get(node_id, {}), raw.get("dur")
        if node_id in comm_attrs or node_id in consumed:
            node_type = NodeType.COMM_COLL if attrs else NodeType.INVALID
        elif isinstance(dur, (int, float)) and not isinstance(dur, bool):
            try:
                attrs = {ATTR_RUNTIME: max(0, round(dur * cycles_per_us))}
            except (OverflowError, ValueError):  # an infinite or NaN product
                raise ConvertError(f"node {node_id}: dur * cycles_per_us is not finite") from None
            node_type = NodeType.COMP
        else:
            node_type = NodeType.INVALID
        converted.append(
            GlobalNode(
                id=node_id,
                name=raw["name"],
                type=node_type,
                parents=tuple(raw["ctrl_deps"]),
                attributes=make_attributes(attrs),
                npu=raw["npu"],
            )
        )
    return split_per_npu(converted)


def convert_pytorch_json(text: "str | bytes", cycles_per_us: float = 1.0) -> list[Trace]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConvertError(f"input is not valid JSON: {exc}") from None
    return convert_pytorch(doc, cycles_per_us)


def _pt_nodes(doc: object) -> "dict[int, dict]":
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ConvertError("document must be an object with a 'nodes' array")
    out: dict[int, dict] = {}
    for i, raw in enumerate(doc["nodes"]):
        if not isinstance(raw, dict):
            raise ConvertError(f"nodes[{i}] is not an object")
        node_id = raw.get("id")
        if not isinstance(node_id, int) or isinstance(node_id, bool):
            raise ConvertError(f"nodes[{i}] lacks an integer id")
        if node_id in out:
            raise ConvertError(f"duplicate node id {node_id}")
        name = raw.get("name")
        if not isinstance(name, str):
            raise ConvertError(f"node {node_id} lacks a string name")
        deps = raw.get("ctrl_deps", [])
        if not isinstance(deps, list) or not all(isinstance(d, int) and not isinstance(d, bool) for d in deps):
            raise ConvertError(f"node {node_id}: ctrl_deps must be a list of ids")
        npu = raw.get("npu", 0)
        if not isinstance(npu, int) or isinstance(npu, bool):
            raise ConvertError(f"node {node_id}: npu must be an integer")
        out[node_id] = {**raw, "name": name, "ctrl_deps": deps, "npu": npu, "id": node_id}
    for node_id, raw in out.items():
        for dep in raw["ctrl_deps"]:
            if dep not in out:
                raise ConvertError(f"node {node_id} references unknown ctrl_dep {dep}")
    return dict(sorted(out.items()))


# --------------------------------------------------------------------------
# FlexFlow-style DOT dialect
# --------------------------------------------------------------------------

_DOT_HEADER_RE = re.compile(r"^\s*(strict\s+)?digraph\s+\w*\s*\{\s*$")
_DOT_NODE_RE = re.compile(r"^\s*\"?(\w+)\"?\s*\[(.*)\]\s*;?\s*$")
_DOT_EDGE_RE = re.compile(r"^\s*\"?(\w+)\"?\s*->\s*\"?(\w+)\"?\s*(\[.*\])?\s*;?\s*$")
_DOT_ATTR_RE = re.compile(r"\s*(\w+)\s*=\s*(\"[^\"]*\"|[^,\]]+)\s*(?:,|$)")

XFER_P2P = "XferP2P"
_MEM_LABELS = {"MemLoad": NodeType.MEM_LOAD, "MemStore": NodeType.MEM_STORE}


def convert_flexflow(text: str) -> list[Trace]:
    """Convert FlexFlow-style DOT text into per-NPU traces.

    Node statements carry key=value metadata: ``label`` selects the operator.
    Operators with ``cycles`` become COMP nodes; ``MemLoad``/``MemStore`` with
    ``bytes`` become memory nodes; ``XferP2P`` (src/dst/bytes) becomes a
    tagged SEND/RECV pair; unknown operators become INVALID. DOT edges map to
    dependency edges.
    """
    parsed_nodes, parsed_edges = _parse_dot(text)

    # One (id, name, type, attribute values, npu) record per node, ids in order.
    records: list[tuple[int, str, NodeType, dict[str, object], int]] = []
    ends: dict[str, tuple[int, int]] = {}  # dot id -> (id its in-edges reach, id its out-edges leave)
    tag = 1
    for dot_id, (attrs, line_no) in parsed_nodes.items():  # insertion = declaration order
        node_id = len(records) + 1
        label = attrs.get("label", "")
        if label == XFER_P2P:
            src = _dot_int(attrs, "src", dot_id, line_no)
            dst = _dot_int(attrs, "dst", dot_id, line_no)
            size = _dot_int(attrs, "bytes", dot_id, line_no)
            records.append((node_id, f"{dot_id}_send", NodeType.COMM_SEND, p2p_attributes(size, dst, tag), src))
            records.append((node_id + 1, f"{dot_id}_recv", NodeType.COMM_RECV, p2p_attributes(size, src, tag), dst))
            ends[dot_id] = (node_id, node_id + 1)
            tag += 1
            continue
        npu = _dot_int(attrs, "npu", dot_id, line_no, default=0)
        if label in _MEM_LABELS:
            size = _dot_int(attrs, "bytes", dot_id, line_no, default=0)
            node_type = _MEM_LABELS[label]
            node_attrs: dict[str, object] = {ATTR_TENSOR_SIZE: size}
        elif "cycles" in attrs:
            node_type = NodeType.COMP
            node_attrs = {ATTR_RUNTIME: _dot_int(attrs, "cycles", dot_id, line_no)}
        else:
            node_type = NodeType.INVALID
            node_attrs = {}
        records.append((node_id, label or dot_id, node_type, node_attrs, npu))
        ends[dot_id] = (node_id, node_id)

    parents: dict[int, list[int]] = {rec[0]: [] for rec in records}
    for src_dot, dst_dot in parsed_edges:
        src_id, dst_id = ends[src_dot][1], ends[dst_dot][0]
        if src_id not in (dst_id, *parents[dst_id]):
            parents[dst_id].append(src_id)
    return split_per_npu(
        [GlobalNode(i, name, t, tuple(parents[i]), make_attributes(attrs), npu) for i, name, t, attrs, npu in records]
    )


def _dot_int(
    attrs: "dict[str, str]", key: str, dot_id: str, line_no: int, default: "int | None" = None
) -> int:
    if key not in attrs:
        if default is not None:
            return default
        raise DotParseError(f"node {dot_id!r} is missing required attribute {key!r}", line_no)
    try:
        return int(attrs[key])
    except ValueError:
        raise DotParseError(f"node {dot_id!r}: attribute {key!r} is not an integer", line_no) from None


def _parse_dot(text: str) -> "tuple[dict[str, tuple[dict[str, str], int]], list[tuple[str, str]]]":
    nodes: dict[str, tuple[dict[str, str], int]] = {}
    edges: list[tuple[str, str]] = []
    opened = closed = False
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("//", 1)[0].strip()
        if not line:
            continue
        if not opened:
            if _DOT_HEADER_RE.match(line):
                opened = True
                continue
            raise DotParseError(f"expected 'digraph <name> {{', got {line!r}", line_no)
        if line == "}":
            closed = True
            continue
        if closed:
            raise DotParseError(f"content after closing brace: {line!r}", line_no)
        edge = _DOT_EDGE_RE.match(line)
        if edge:
            src, dst = edge.group(1), edge.group(2)
            for end in (src, dst):
                if end not in nodes:
                    raise DotParseError(f"edge references undeclared node {end!r}", line_no)
            edges.append((src, dst))
            continue
        node = _DOT_NODE_RE.match(line)
        if node:
            dot_id, attr_text = node.group(1), node.group(2)
            if dot_id in nodes:
                raise DotParseError(f"node {dot_id!r} declared twice", line_no)
            attrs = {}
            for m in _DOT_ATTR_RE.finditer(attr_text):
                value = m.group(2).strip()
                if value.startswith('"') and value.endswith('"'):
                    value = value[1:-1]
                attrs[m.group(1)] = value
            nodes[dot_id] = (attrs, line_no)
            continue
        raise DotParseError(f"unparseable statement: {line!r}", line_no)
    if not opened:
        raise DotParseError("no digraph header found", max(1, text.count("\n") + 1))
    if not closed:
        raise DotParseError("missing closing '}'", text.count("\n") + 1)
    return nodes, edges
