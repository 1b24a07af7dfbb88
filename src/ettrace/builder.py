"""Programmatic trace construction.

The builder hands out fresh node ids, keeps the growing graph acyclic, and
refuses to emit a trace that fails validation. A broken trace on purpose is
a ``Trace`` literal.
"""
from __future__ import annotations

from functools import lru_cache, partialmethod

from .schema import (
    ATTR_COMM_GROUP,
    ATTR_COMM_SIZE,
    ATTR_COMM_TYPE,
    ATTR_RUNTIME,
    Attribute,
    CommType,
    ETNode,
    NodeType,
    SCHEMA_VERSION,
    Trace,
    _infer_attr,
    make_attributes,
    p2p_attributes,
)
from .validate import InvalidTraceError, validate_trace


class DependencyCycleError(ValueError):
    """Adding this edge would close a cycle."""


class TraceBuilder:
    def __init__(self, npu_id: int, schema_version: str = SCHEMA_VERSION, first_id: int = 1):
        self.npu_id = npu_id
        self.schema_version = schema_version
        self._next_id = first_id
        self._names: dict[int, str] = {}
        self._types: dict[int, NodeType] = {}
        self._attrs: dict[int, list[Attribute]] = {}
        self._parents: dict[int, list[int]] = {}
        self._has_children: set[int] = set()
        # _infer_attr once per (name, value) and their types, so that 1 and 1.0 stay apart
        self._shared = lru_cache(maxsize=None, typed=True)(_infer_attr)

    def __len__(self) -> int:
        return len(self._names)

    def add_node(
        self,
        type: "NodeType | str",
        name: str,
        attrs: "dict[str, object] | list[Attribute] | None" = None,
        parents: "list[int] | tuple[int, ...]" = (),
    ) -> int:
        """Add a node and return its fresh id.  Strings name a NodeType member."""
        node_id = self._next_id
        self._next_id += 1
        self._names[node_id] = name
        self._types[node_id] = type if isinstance(type, NodeType) else NodeType[type]
        self._attrs[node_id] = self._attributes(attrs)
        self._parents[node_id] = []
        for pid in parents:
            self.assign_dep(pid, node_id)
        return node_id

    # Convenience constructors for the common node shapes.

    def comp(self, name: str, runtime: int, parents: "list[int] | tuple[int, ...]" = ()) -> int:
        return self.add_node(NodeType.COMP, name, {ATTR_RUNTIME: int(runtime)}, parents)

    def coll(
        self,
        name: str,
        comm_type: "CommType | str",
        comm_size: int,
        comm_group: str,
        parents: "list[int] | tuple[int, ...]" = (),
        extra: "dict[str, object] | None" = None,
    ) -> int:
        attrs: dict[str, object] = {
            ATTR_COMM_TYPE: (comm_type if isinstance(comm_type, CommType) else CommType(comm_type)).value,
            ATTR_COMM_SIZE: int(comm_size),
            ATTR_COMM_GROUP: comm_group,
        }
        if extra:
            attrs.update(extra)
        return self.add_node(NodeType.COMM_COLL, name, attrs, parents)

    def _p2p(
        self,
        type: NodeType,
        name: str,
        comm_size: int,
        comm_peer: int,
        parents: "list[int] | tuple[int, ...]" = (),
        tag: "int | None" = None,
    ) -> int:
        attrs = p2p_attributes(int(comm_size), int(comm_peer), None if tag is None else int(tag))
        return self.add_node(type, name, attrs, parents)

    send = partialmethod(_p2p, NodeType.COMM_SEND)
    recv = partialmethod(_p2p, NodeType.COMM_RECV)

    def set_attr(self, node_id: int, name: str, value: object) -> None:
        """Set or replace one attribute on an existing node."""
        self._require(node_id)
        new = self._attributes({name: value})[0]
        attrs = self._attrs[node_id]
        for i, attr in enumerate(attrs):
            if attr.name == name:
                attrs[i] = new
                return
        attrs.append(new)

    def _attributes(self, attrs: "dict[str, object] | list[Attribute] | None") -> list[Attribute]:
        """``make_attributes(attrs)``, with one Attribute per int, str or non-zero float value of a name
        (a bool has no kind, and ``==`` ignores the sign of a float zero)."""
        if not isinstance(attrs, dict):
            return list(make_attributes(attrs))
        return [
            self._shared(name, value) if type(value) in (int, str) or type(value) is float and value
            else _infer_attr(name, value)
            for name, value in attrs.items()
        ]

    def _require(self, node_id: int) -> None:
        if node_id not in self._names:
            raise KeyError(f"builder has no node {node_id}")

    def _reaches(self, start: int, goal: int) -> bool:
        # Walk child->parent edges from start looking for goal.
        stack = [start]
        seen = set()
        while stack:
            nid = stack.pop()
            if nid == goal:
                return True
            if nid in seen:
                continue
            seen.add(nid)
            stack.extend(self._parents[nid])
        return False

    def assign_dep(self, parent_id: int, child_id: int) -> None:
        """Make ``child_id`` depend on ``parent_id``. Idempotent; rejects cycles."""
        self._require(parent_id)
        self._require(child_id)
        if parent_id == child_id:
            raise DependencyCycleError(f"node {child_id} cannot depend on itself")
        if parent_id in self._parents[child_id]:
            return
        # A cycle can only close through a child that already has children, so
        # edges into fresh nodes (every chain built in id order) skip the walk.
        if child_id in self._has_children and self._reaches(parent_id, child_id):
            raise DependencyCycleError(
                f"edge {parent_id} -> {child_id} would close a dependency cycle"
            )
        self._parents[child_id].append(parent_id)
        self._has_children.add(parent_id)

    def build(self) -> Trace:
        nodes = tuple(
            ETNode(nid, self._names[nid], self._types[nid], tuple(self._parents[nid]), tuple(self._attrs[nid]))
            for nid in sorted(self._names)
        )
        trace = Trace(npu_id=self.npu_id, nodes=nodes, schema_version=self.schema_version)
        report = validate_trace(trace)
        if not report.ok:
            raise InvalidTraceError(report, "built trace failed validation")
        return trace
