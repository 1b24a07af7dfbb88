"""Structural validation of traces.

Every invariant the data model promises has exactly one violation code here,
so callers can assert on codes instead of parsing messages.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

from .schema import (
    ATTR_COMM_GROUP,
    ATTR_COMM_PEER,
    ATTR_COMM_SIZE,
    ATTR_COMM_TYPE,
    ATTR_NUM_OPS,
    ATTR_RUNTIME,
    ATTR_TENSOR_SIZE,
    COLLECTIVE_COMM_TYPES,
    Attribute,
    CommType,
    ETNode,
    NodeType,
    Trace,
    _FLOAT,
    _FLOATS,
    _INT,
    _INTS,
    _STRING,
    _STRINGS,
    _WELL_KNOWN_KINDS,
    attr_value_matches_kind,
    dependency_graph,
    parse_schema_version,
)

# Violation codes (stable API).
DUPLICATE_ID = "duplicate-id"
NEGATIVE_ID = "negative-id"
DANGLING_PARENT = "dangling-parent"
SELF_PARENT = "self-parent"
DUPLICATE_PARENT = "duplicate-parent"
CYCLE = "cycle"
EMPTY_ATTR_NAME = "empty-attribute-name"
DUPLICATE_ATTRIBUTE = "duplicate-attribute"
KIND_VALUE_MISMATCH = "kind-value-mismatch"
MISSING_REQUIRED_ATTR = "missing-required-attribute"
WRONG_ATTR_KIND = "wrong-attribute-kind"
BAD_COMM_TYPE = "bad-comm-type"
BAD_NODE_TYPE = "bad-node-type"
BAD_SCHEMA_VERSION = "bad-schema-version"
NEGATIVE_SIZE = "negative-size"
OUT_OF_RANGE = "out-of-range"
NON_FINITE = "non-finite"
NOT_A_STRING = "not-a-string"
NOT_AN_INT = "not-an-int"

ALL_CODES = (
    DUPLICATE_ID,
    NEGATIVE_ID,
    DANGLING_PARENT,
    SELF_PARENT,
    DUPLICATE_PARENT,
    CYCLE,
    EMPTY_ATTR_NAME,
    DUPLICATE_ATTRIBUTE,
    KIND_VALUE_MISMATCH,
    MISSING_REQUIRED_ATTR,
    WRONG_ATTR_KIND,
    BAD_COMM_TYPE,
    BAD_NODE_TYPE,
    BAD_SCHEMA_VERSION,
    NEGATIVE_SIZE,
    OUT_OF_RANGE,
    NON_FINITE,
    NOT_A_STRING,
    NOT_AN_INT,
)

_COMM_TYPE_VALUES = frozenset(ct.value for ct in CommType)
_COLLECTIVE_VALUES = frozenset(ct.value for ct in COLLECTIVE_COMM_TYPES)

# Sizes, counts and durations: a negative value has no meaning.
_NON_NEGATIVE = frozenset({ATTR_RUNTIME, ATTR_COMM_SIZE, ATTR_TENSOR_SIZE, ATTR_NUM_OPS})

# Widths of the binary container's fixed-size fields.
_U8_MAX = 0xFF  # schema minor version
_U16_MAX = 0xFFFF  # UTF-8 bytes of a node or attribute name; attributes per node
_LONG_TEXT = _U16_MAX // 4
_U32_MAX = 0xFFFF_FFFF  # npu_id
_U64_MAX = 0xFFFF_FFFF_FFFF_FFFF  # node id
_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1  # INT value, INTS item
_FLOAT_MAX = sys.float_info.max  # NaN and +-Inf fail -max <= v <= max


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    node_id: "int | None" = None


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(
            f"[{v.code}] node {v.node_id}: {v.message}" if v.node_id is not None else f"[{v.code}] {v.message}"
            for v in self.violations
        )


_OK = ValidationReport(())


class InvalidTraceError(ValueError):
    """Raised by APIs that refuse to operate on an invalid trace."""

    def __init__(self, report: ValidationReport, context: str = "trace failed validation"):
        self.report = report
        super().__init__(f"{context}:\n{report}")


def _not_utf8(text: str) -> bool:
    """True when ``text`` holds a lone surrogate, which UTF-8 cannot encode.

    Callers test ``text.isascii()`` first, inline, because validation runs for
    every name and string of every node: ASCII text always encodes.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


def _too_long(text: str) -> bool:
    """True when ``text`` takes more UTF-8 bytes than a u16 length can count.

    Callers test ``len(text) > _LONG_TEXT`` first, inline, because validation
    runs for every name of every node: shorter text fits even at 4 bytes per
    character.
    """
    return len(text.encode("utf-8")) > _U16_MAX


def _check_attributes(node: ETNode, out: list[Violation], clean: "set[int]") -> "dict[str, Attribute]":
    """Report each attribute's violations; returns the first of each name, as ``ETNode.attribute`` finds it.
    ``clean`` holds the ids of the attributes that passed every check but the node's duplicate-name one."""
    first: dict[str, Attribute] = {}
    for attr in node.attributes:
        name = attr.name
        if id(attr) in clean:
            if name in first:
                out.append(Violation(DUPLICATE_ATTRIBUTE, f"attribute {name!r} appears twice", node.id))
            first.setdefault(name, attr)
            continue
        reported = len(out)
        if not isinstance(name, str):
            out.append(Violation(NOT_A_STRING, f"attribute name {name!r} is not a string", node.id))
            name = None  # may be unhashable; no name-based check applies
        else:
            if not name:
                out.append(Violation(EMPTY_ATTR_NAME, "attribute with empty name", node.id))
            if name in first:
                out.append(Violation(DUPLICATE_ATTRIBUTE, f"attribute {name!r} appears twice", node.id))
                reported += 1
            first.setdefault(name, attr)
            if not name.isascii() and _not_utf8(name):
                out.append(Violation(NOT_A_STRING, f"attribute name {name!r} is not UTF-8 text", node.id))
            elif len(name) > _LONG_TEXT and _too_long(name):
                out.append(Violation(OUT_OF_RANGE, f"attribute name is over {_U16_MAX} UTF-8 bytes", node.id))
        doc = attr.doc_string
        if not isinstance(doc, str):
            out.append(Violation(NOT_A_STRING, f"attribute {attr.name!r}: doc_string is not a string", node.id))
        elif not doc.isascii() and _not_utf8(doc):
            out.append(Violation(NOT_A_STRING, f"attribute {attr.name!r}: doc_string is not UTF-8 text", node.id))
        if not attr_value_matches_kind(attr.kind, attr.value):
            out.append(
                Violation(
                    KIND_VALUE_MISMATCH,
                    f"attribute {attr.name!r}: value {attr.value!r} does not match kind "
                    f"{getattr(attr.kind, 'name', attr.kind)}",
                    node.id,
                )
            )
            continue
        expected = _WELL_KNOWN_KINDS.get(name)
        if expected is not None and attr.kind is not expected:
            out.append(
                Violation(
                    WRONG_ATTR_KIND,
                    f"attribute {name!r} must be {expected.name}, got {attr.kind.name}",
                    node.id,
                )
            )
        elif name in _NON_NEGATIVE and attr.value < 0:
            out.append(Violation(NEGATIVE_SIZE, f"{name} {attr.value} is negative", node.id))
        # Values the binary container cannot store, or standard JSON cannot hold.
        kind, value = attr.kind, attr.value
        if kind is _INT:
            if not _I64_MIN <= value <= _I64_MAX:
                out.append(Violation(OUT_OF_RANGE, f"attribute {attr.name!r}: {value} is outside int64", node.id))
        elif kind is _STRING:
            if not value.isascii() and _not_utf8(value):
                out.append(Violation(NOT_A_STRING, f"attribute {attr.name!r}: value is not UTF-8 text", node.id))
        elif kind is _FLOAT:
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                out.append(Violation(NON_FINITE, f"attribute {attr.name!r}: {value!r} is not finite", node.id))
        elif kind is _INTS:
            if value and not (_I64_MIN <= min(value) and max(value) <= _I64_MAX):
                out.append(Violation(OUT_OF_RANGE, f"attribute {attr.name!r}: an item is outside int64", node.id))
        elif kind is _FLOATS:
            if not all(-_FLOAT_MAX <= v <= _FLOAT_MAX for v in value):
                out.append(Violation(NON_FINITE, f"attribute {attr.name!r}: an item is not finite", node.id))
        elif kind is _STRINGS:
            if not all(item.isascii() for item in value) and any(map(_not_utf8, value)):
                out.append(Violation(NOT_A_STRING, f"attribute {attr.name!r}: an item is not UTF-8 text", node.id))
        if len(out) == reported:
            clean.add(id(attr))
    return first


def _check_comm_contract(node: ETNode, first: "dict[str, Attribute]", out: list[Violation]) -> None:
    """COMM nodes must carry the attributes the cost model needs; ``first`` maps name to attribute."""
    if node.type is NodeType.COMM_COLL:
        required = (ATTR_COMM_TYPE, ATTR_COMM_SIZE, ATTR_COMM_GROUP)
    elif node.type in (NodeType.COMM_SEND, NodeType.COMM_RECV):
        required = (ATTR_COMM_SIZE, ATTR_COMM_PEER)
    else:
        return
    for name in required:
        if name not in first:
            out.append(Violation(MISSING_REQUIRED_ATTR, f"{node.type.name} node lacks {name!r}", node.id))
    attr = first.get(ATTR_COMM_TYPE)
    if attr is None or attr.kind is not _STRING or not isinstance(attr.value, str):
        return  # _check_attributes reports a wrong kind or value
    ct = attr.value
    if ct not in _COMM_TYPE_VALUES:
        out.append(Violation(BAD_COMM_TYPE, f"unknown comm_type {ct!r}", node.id))
    elif node.type is NodeType.COMM_COLL and ct not in _COLLECTIVE_VALUES:
        out.append(Violation(BAD_COMM_TYPE, f"comm_type {ct!r} is point-to-point, node is COMM_COLL", node.id))
    elif node.type is NodeType.COMM_SEND and ct != CommType.SEND.value:
        out.append(Violation(BAD_COMM_TYPE, f"COMM_SEND node claims comm_type {ct!r}", node.id))
    elif node.type is NodeType.COMM_RECV and ct != CommType.RECV.value:
        out.append(Violation(BAD_COMM_TYPE, f"COMM_RECV node claims comm_type {ct!r}", node.id))


def _find_cycle_members(nodes: dict[int, ETNode]) -> set[int]:
    """Ids of the nodes Kahn peeling leaves: those on a cycle or downstream of one."""
    order, unmet, children = dependency_graph(nodes.values())
    peeled = [pos for pos, left in enumerate(unmet) if not left]
    for pos in peeled:  # grows as it goes
        for child in children[pos]:
            unmet[child] -= 1
            if not unmet[child]:
                peeled.append(child)
    return {order[pos].id for pos, left in enumerate(unmet) if left}


def validate_trace(trace: Trace) -> ValidationReport:
    """Check every structural invariant; returns all violations, not just the first.

    A trace that passes is marked by an instance attribute, not a dataclass
    field, so ==, hash, repr and dataclasses.replace ignore it. Later calls for
    that object return the shared OK report at once: Trace, ETNode and
    Attribute are frozen, so a trace that passed stays valid.
    """
    if getattr(trace, "_passed_validation", False):
        return _OK
    out: list[Violation] = []

    try:
        major, minor = parse_schema_version(trace.schema_version)
    except ValueError as exc:
        out.append(Violation(BAD_SCHEMA_VERSION, str(exc)))
    else:
        if major > 0:
            out.append(Violation(BAD_SCHEMA_VERSION, f"unsupported major version in {trace.schema_version!r}"))
        elif minor > _U8_MAX:
            out.append(Violation(OUT_OF_RANGE, f"schema minor version {minor} is above {_U8_MAX}"))
    if type(trace.npu_id) is not int:
        out.append(Violation(NOT_AN_INT, f"npu_id {trace.npu_id!r} is not an int"))
    elif not 0 <= trace.npu_id <= _U32_MAX:
        out.append(Violation(OUT_OF_RANGE, f"npu_id {trace.npu_id} is outside 0..{_U32_MAX}"))

    by_id: dict[int, ETNode] = {}
    clean: set[int] = set()  # the trace holds every attribute, so ids stay unique through the call
    for node in trace.nodes:
        if type(node.id) is not int:
            out.append(Violation(NOT_AN_INT, f"node id {node.id!r} is not an int"))
            continue
        if node.id < 0:
            out.append(Violation(NEGATIVE_ID, f"node id {node.id} is negative", node.id))
        elif node.id > _U64_MAX:
            out.append(Violation(OUT_OF_RANGE, f"node id {node.id} is above {_U64_MAX}", node.id))
        if node.id in by_id:
            out.append(Violation(DUPLICATE_ID, f"node id {node.id} appears more than once", node.id))
        else:
            by_id[node.id] = node

    for node in trace.nodes:
        if type(node.id) is not int:
            continue  # reported above; no violation could name the node
        if not isinstance(node.type, NodeType):
            out.append(Violation(BAD_NODE_TYPE, f"node type {node.type!r} is not a NodeType", node.id))
        seen_parents: set[int] = set()
        for pid in node.parents:
            if type(pid) is not int:
                out.append(Violation(NOT_AN_INT, f"parent {pid!r} is not an int", node.id))
                continue
            if pid == node.id:
                out.append(Violation(SELF_PARENT, "node lists itself as a parent", node.id))
            elif pid not in by_id:
                out.append(Violation(DANGLING_PARENT, f"parent {pid} does not exist", node.id))
            if pid in seen_parents:
                out.append(Violation(DUPLICATE_PARENT, f"parent {pid} listed twice", node.id))
            seen_parents.add(pid)
        if not isinstance(node.name, str):
            out.append(Violation(NOT_A_STRING, f"node name {node.name!r} is not a string", node.id))
        elif not node.name.isascii() and _not_utf8(node.name):
            out.append(Violation(NOT_A_STRING, f"node name {node.name!r} is not UTF-8 text", node.id))
        elif len(node.name) > _LONG_TEXT and _too_long(node.name):
            out.append(Violation(OUT_OF_RANGE, f"node name is over {_U16_MAX} UTF-8 bytes", node.id))
        if len(node.attributes) > _U16_MAX:
            out.append(Violation(OUT_OF_RANGE, f"more than {_U16_MAX} attributes", node.id))
        _check_comm_contract(node, _check_attributes(node, out, clean), out)

    for nid in sorted(_find_cycle_members(by_id)):
        out.append(Violation(CYCLE, "node is on a dependency cycle or depends on one", nid))

    if not out:
        object.__setattr__(trace, "_passed_validation", True)
    return ValidationReport(tuple(out))


def workload_check() -> "Callable[[Trace], list[Violation]]":
    """A check of a workload one trace at a time: each call returns its trace's
    violations, led by a duplicate-id one when an earlier call saw its npu_id."""
    seen_npus: set[int] = set()

    def check(trace: Trace) -> list[Violation]:
        out: list[Violation] = []
        if type(trace.npu_id) is int:  # validate_trace reports any other npu_id
            if trace.npu_id in seen_npus:
                out.append(Violation(DUPLICATE_ID, f"npu_id {trace.npu_id} appears in more than one trace"))
            seen_npus.add(trace.npu_id)
        out.extend(validate_trace(trace).violations)
        return out

    return check


def validate_workload(traces: "Iterable[Trace]") -> ValidationReport:
    """Validate several per-NPU traces plus cross-trace sanity (unique npu_ids), holding one trace at a time."""
    return ValidationReport(tuple(chain.from_iterable(map(workload_check(), traces))))
