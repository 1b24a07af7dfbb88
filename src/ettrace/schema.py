"""Core execution-trace data model.

A trace is the recorded (or generated) activity of a single NPU: a DAG of
nodes, each tagged with a node type and a small bag of typed attributes.
Multi-NPU workloads are plain lists of traces, one per NPU.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, Union

SCHEMA_VERSION = "0.1"


class NodeType(Enum):
    """Closed set of node kinds; decoding an unknown tag is an error."""

    INVALID = 0
    MEM_LOAD = 1
    MEM_STORE = 2
    COMP = 3
    COMM_SEND = 4
    COMM_RECV = 5
    COMM_COLL = 6


class AttributeKind(Enum):
    FLOAT = 0
    INT = 1
    STRING = 2
    FLOATS = 3
    INTS = 4
    STRINGS = 5


class CommType(str, Enum):
    """Legal values of the "comm_type" attribute."""

    ALL_REDUCE = "ALL_REDUCE"
    ALL_GATHER = "ALL_GATHER"
    REDUCE_SCATTER = "REDUCE_SCATTER"
    ALL_TO_ALL = "ALL_TO_ALL"
    SEND = "SEND"
    RECV = "RECV"


COLLECTIVE_COMM_TYPES = frozenset(
    {CommType.ALL_REDUCE, CommType.ALL_GATHER, CommType.REDUCE_SCATTER, CommType.ALL_TO_ALL}
)

# Module-level aliases: reading an Enum member off its class, or hashing it
# for a dict or set lookup, runs Python-level Enum code on every call.
_FLOAT, _INT, _STRING = AttributeKind.FLOAT, AttributeKind.INT, AttributeKind.STRING
_FLOATS, _INTS, _STRINGS = AttributeKind.FLOATS, AttributeKind.INTS, AttributeKind.STRINGS

# Well-known attribute names. Nothing enforces that *only* these appear;
# validation only checks the ones a node type requires.
ATTR_RUNTIME = "runtime"  # cycles
ATTR_COMM_TYPE = "comm_type"  # a CommType value
ATTR_COMM_SIZE = "comm_size"  # bytes
ATTR_COMM_GROUP = "comm_group"  # opaque group id
ATTR_COMM_PEER = "comm_peer"  # peer npu_id for SEND/RECV
ATTR_COMM_TAG = "comm_tag"  # optional explicit SEND/RECV pairing tag
ATTR_TENSOR_SIZE = "tensor_size"  # bytes
ATTR_NUM_OPS = "num_ops"  # arithmetic ops for modeled compute timing

# The kind each well-known attribute must carry when present.
_WELL_KNOWN_KINDS = {
    ATTR_RUNTIME: _INT,
    ATTR_COMM_TYPE: _STRING,
    ATTR_COMM_SIZE: _INT,
    ATTR_COMM_GROUP: _STRING,
    ATTR_COMM_PEER: _INT,
    ATTR_COMM_TAG: _INT,
    ATTR_TENSOR_SIZE: _INT,
    ATTR_NUM_OPS: _INT,
}

AttrValue = Union[float, int, str, "tuple[float, ...]", "tuple[int, ...]", "tuple[str, ...]"]


def attr_value_matches_kind(kind: AttributeKind, value: object) -> bool:
    """True when ``value`` is a legal payload for ``kind``.

    bool is rejected as an INT payload even though it subclasses int; a trace
    that claims INT but stores True is a recording bug worth surfacing. Ints
    are legal wherever floats are.
    """
    if kind is _INT:
        return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))
    if kind is _STRING:
        return isinstance(value, str)
    if kind is _FLOAT:
        return type(value) is float or (isinstance(value, (float, int)) and not isinstance(value, bool))
    if kind is _INTS:
        item_types: "type | tuple[type, ...]" = int
    elif kind is _FLOATS:
        item_types = (float, int)
    elif kind is _STRINGS:
        item_types = str
    else:
        return False
    if not isinstance(value, tuple):
        return False
    for item in value:
        if not isinstance(item, item_types) or isinstance(item, bool):
            return False
    return True


@dataclass(frozen=True, slots=True)
class Attribute:
    """A named, typed value attached to a node.

    The kind/value pairing is *not* enforced here so that decoded-but-broken
    traces stay representable; ``validate_trace`` reports mismatches.
    """

    name: str
    kind: AttributeKind
    value: AttrValue
    doc_string: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.value, list):
            object.__setattr__(self, "value", tuple(self.value))


def float_payload(kind: AttributeKind, value: AttrValue) -> AttrValue:
    """``value``, a legal ``kind`` payload, with the ints of a FLOAT or FLOATS one as floats.

    A payload holding an int that no float can hold is returned as it is, for
    validation to report as non-finite.
    """
    try:
        if kind is _FLOATS:
            return tuple(map(float, value))  # type: ignore[arg-type]
        if kind is _FLOAT and not isinstance(value, float):
            return float(value)  # type: ignore[arg-type]
    except OverflowError:
        pass
    return value


def _infer_attr(name: str, value: object) -> Attribute:
    if type(value) is int:  # the kinds the loop below finds first for these types
        return Attribute(name, _INT, value)
    if type(value) is str:
        return Attribute(name, _STRING, value)
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        raise TypeError(f"attribute {name!r}: bool has no attribute kind")
    if isinstance(value, CommType):
        value = value.value
    elif isinstance(value, (list, tuple)):
        value = tuple(value)
    for kind in (_INT, _FLOAT, _STRING, _INTS, _FLOATS, _STRINGS):  # the first kind the value matches
        if attr_value_matches_kind(kind, value):
            return Attribute(name, kind, float_payload(kind, value))  # type: ignore[arg-type]
    if isinstance(value, tuple):
        raise TypeError(f"attribute {name!r}: mixed or unsupported list payload")
    raise TypeError(f"attribute {name!r}: cannot infer kind for {type(value).__name__}")


def make_attributes(attrs: "dict[str, object] | Iterable[Attribute] | None") -> tuple[Attribute, ...]:
    """Coerce a {name: python value} mapping or Attribute iterable to a tuple."""
    if attrs is None:
        return ()
    if isinstance(attrs, dict):
        return tuple(_infer_attr(name, value) for name, value in attrs.items())
    return tuple(attrs)


def p2p_attributes(comm_size: object, comm_peer: object, comm_tag: object = None) -> "dict[str, object]":
    """A COMM_SEND or COMM_RECV node's attribute values: bytes, peer npu_id and an optional pairing tag."""
    attrs = {ATTR_COMM_SIZE: comm_size, ATTR_COMM_PEER: comm_peer}
    if comm_tag is not None:
        attrs[ATTR_COMM_TAG] = comm_tag
    return attrs


@dataclass(frozen=True, slots=True)
class ETNode:
    """One unit of recorded work: compute, memory traffic, or communication."""

    id: int
    name: str
    type: NodeType
    parents: tuple[int, ...] = ()
    attributes: tuple[Attribute, ...] = ()

    def __post_init__(self) -> None:
        if type(self.parents) is not tuple:
            object.__setattr__(self, "parents", tuple(self.parents))
        if type(self.attributes) is not tuple:
            object.__setattr__(self, "attributes", tuple(self.attributes))

    def attribute(self, name: str) -> "Attribute | None":
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None


@dataclass(frozen=True)
class Trace:
    """All nodes recorded on one NPU, in a stable order."""

    npu_id: int
    nodes: tuple[ETNode, ...] = ()
    schema_version: str = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if type(self.nodes) is not tuple:
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def node(self, node_id: int) -> ETNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(f"npu {self.npu_id}: no node with id {node_id}")


def dependency_graph(nodes: "Iterable[ETNode]") -> "tuple[list[ETNode], list[int], list[tuple[int, ...]]]":
    """``nodes`` (distinct int ids) sorted by id, with each position's count of unfinished parents and
    its children's positions as tuples. Only int parents naming another node count, once per copy, so
    validation can build the graph of a trace it has yet to accept."""
    order = sorted(nodes, key=attrgetter("id"))
    position = {node.id: pos for pos, node in enumerate(order)}
    unmet = [0] * len(order)
    children: list[list[int]] = [[] for _ in order]
    for pos, node in enumerate(order):
        for parent in node.parents:
            if type(parent) is int:
                at = position.get(parent, pos)
                if at != pos:
                    unmet[pos] += 1
                    children[at].append(pos)
    return order, unmet, list(map(tuple, children))


def get_attr(node: ETNode, name: str, default: object = None) -> object:
    """Return the attribute's value (not the Attribute wrapper), or default."""
    attr = node.attribute(name)
    return default if attr is None else attr.value


def _typed_attr(node: ETNode, name: str, kind: AttributeKind, default: object) -> object:
    """The value of ``node``'s ``name`` attribute, or ``default``; TypeError naming ``node`` unless it is a ``kind``."""
    attr = node.attribute(name)
    if attr is None:
        return default
    if attr.kind is not kind or not attr_value_matches_kind(kind, attr.value):
        raise TypeError(f"node {node.id}: attribute {name!r} is not {'an' if kind is _INT else 'a'} {kind.name}")
    return attr.value


def get_int_attr(node: ETNode, name: str, default: "int | None" = None) -> "int | None":
    return _typed_attr(node, name, _INT, default)  # type: ignore[return-value]


def get_str_attr(node: ETNode, name: str, default: "str | None" = None) -> "str | None":
    return _typed_attr(node, name, _STRING, default)  # type: ignore[return-value]


def parse_schema_version(version: str) -> tuple[int, int]:
    """``"<major>.<minor>"`` as ints. Each part is a canonical ASCII decimal, the text both codecs give back."""
    parts = version.split(".") if isinstance(version, str) else ()
    if len(parts) != 2 or not all(p.isascii() and p.isdigit() and (p == "0" or p[0] != "0") for p in parts):
        raise ValueError(f"malformed schema_version {version!r}; expected '<major>.<minor>'")
    return int(parts[0]), int(parts[1])
