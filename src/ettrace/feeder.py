"""Dependency-aware node feeder.

Hands out nodes whose parents have all completed, in FIFO order (seeded by
ascending node id), and unlocks children as completions are reported back.
INVALID nodes are transparent: they complete on their own the moment their
parents finish, so consumers never see them. ``load`` takes only traces
that pass validation, so every parent it reads exists and is listed once. It
stores child lists as tuples, which the cyclic garbage collector stops
tracking once they hold only ids; ``add_node`` grows lists.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from .schema import ETNode, NodeType, Trace
from .validate import InvalidTraceError, validate_trace


class FeederError(RuntimeError):
    pass


def release(node: int, children, unmet, invalid: Callable[[int], bool], ready: Callable[[int], object]) -> list[int]:
    """Count ``node`` complete for each child, and pass each child left with no
    unfinished parent to ``ready``, in order. A child that ``invalid`` names
    completes in place instead, depth first, on an explicit stack; returns those.
    ``children`` and ``unmet`` are keyed by id in ``Feeder``, by position in replay."""
    collapsed = []
    stack = [iter(children[node])]
    while stack:
        for child in stack[-1]:
            unmet[child] -= 1
            if not unmet[child]:
                if invalid(child):
                    collapsed.append(child)
                    stack.append(iter(children[child]))
                    break
                ready(child)
        else:
            stack.pop()
    return collapsed


class Feeder:
    def __init__(self, trace: "Trace | None" = None):
        self._nodes: dict[int, ETNode] = {}
        self._children: dict[int, "tuple[int, ...] | list[int]"] = {}  # tuples from load
        self._unmet: dict[int, int] = {}
        self._queue: deque[int] = deque()
        self._issued: set[int] = set()
        self._completed: set[int] = set()
        if trace is not None:
            self.load(trace)

    # ------------------------------------------------------------------
    # Loading and incremental growth
    # ------------------------------------------------------------------

    def load(self, trace: Trace) -> None:
        """Load all nodes of a trace (replacing any previous contents).

        Raises InvalidTraceError when the trace fails validation. Unlike
        add_node, load accepts nodes in any id/parent order. The ready
        queue starts as all effectively zero-in-degree non-INVALID nodes in
        ascending id order, where "effectively" accounts for INVALID nodes
        (and chains of them) completing on the spot.
        """
        report = validate_trace(trace)
        if not report.ok:
            raise InvalidTraceError(report, "feeder refuses invalid trace")
        self.__init__()
        children: dict[int, list[int]] = {}
        for node in trace.nodes:
            self._nodes[node.id] = node
            children[node.id] = []
        ordered = sorted(trace.nodes, key=lambda n: n.id)
        for node in ordered:
            self._unmet[node.id] = len(node.parents)
            for pid in node.parents:
                children[pid].append(node.id)
        self._children = {nid: tuple(kids) for nid, kids in children.items()}
        # Collapse source-side INVALID chains before queueing anything, so the
        # initial queue order is purely ascending id.
        for node in ordered:
            if not node.parents and node.type is NodeType.INVALID:
                self._complete(node.id)
        self._queue.extend(
            nid
            for nid in sorted(self._nodes)
            if self._unmet[nid] == 0 and nid not in self._completed
        )

    def add_node(self, node: ETNode) -> None:
        """Add one node; its parents must already be known."""
        if node.id in self._nodes:
            raise FeederError(f"node {node.id} already present")
        missing = [p for p in node.parents if p not in self._nodes]
        if missing:
            raise FeederError(f"node {node.id}: unknown parents {missing}")
        self._nodes[node.id] = node
        self._children[node.id] = []  # it may gain children
        unmet = 0
        for pid in set(node.parents):
            if pid not in self._completed:
                unmet += 1
                children = self._children[pid]
                if isinstance(children, tuple):  # loaded: copy once, then append in O(1)
                    children = self._children[pid] = list(children)
                children.append(node.id)
        self._unmet[node.id] = unmet
        if unmet == 0:
            if node.type is NodeType.INVALID:
                self._complete(node.id)
            else:
                self._queue.append(node.id)

    # ------------------------------------------------------------------
    # Issue loop
    # ------------------------------------------------------------------

    def has_nodes_to_issue(self) -> bool:
        """True iff the ready queue is non-empty right now.

        False does not mean the trace is drained: nodes may be in flight or
        still blocked on parents. Use ``pending_count`` for drain checks.
        """
        return bool(self._queue)

    def get_next_issuable_node(self) -> "ETNode | None":
        """Pop the next ready node (FIFO), or None if nothing is ready now."""
        if not self._queue:
            return None
        node_id = self._queue.popleft()
        self._issued.add(node_id)
        return self._nodes[node_id]

    def push_back_issuable_node(self, node_id: int) -> None:
        """Return an issued-but-unfinished node to the tail of the ready queue."""
        if node_id not in self._nodes:
            raise FeederError(f"unknown node {node_id}")
        if node_id not in self._issued:
            raise FeederError(f"node {node_id} is not currently issued")
        self._issued.discard(node_id)
        self._queue.append(node_id)

    def free_children_nodes(self, node_id: int) -> list[int]:
        """Mark ``node_id`` complete; returns ids that became issuable (in order)."""
        if node_id not in self._nodes:
            raise FeederError(f"unknown node {node_id}")
        if node_id in self._completed:
            raise FeederError(f"node {node_id} completed twice")
        if node_id not in self._issued:
            raise FeederError(f"node {node_id} was never issued")
        self._issued.discard(node_id)
        freed = self._complete(node_id)
        self._queue.extend(freed)
        return freed

    def _complete(self, node_id: int) -> list[int]:
        """Mark ``node_id`` complete; return the non-INVALID nodes it readied, in order."""
        freed: list[int] = []
        self._completed.add(node_id)
        nodes = self._nodes
        self._completed.update(
            release(node_id, self._children, self._unmet, lambda c: nodes[c].type is NodeType.INVALID, freed.append)
        )
        return freed

    # ------------------------------------------------------------------
    # Lookup and removal
    # ------------------------------------------------------------------

    def lookup_node(self, node_id: int) -> ETNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise FeederError(f"unknown node {node_id}") from None

    def remove_node(self, node_id: int) -> None:
        """Forget a node entirely. Refused while any child still depends on it."""
        if node_id not in self._nodes:
            raise FeederError(f"unknown node {node_id}")
        live = [c for c in self._children[node_id] if c not in self._completed]
        if live:
            raise FeederError(f"node {node_id} still has live children {live}")
        if node_id in self._queue:
            self._queue.remove(node_id)
        self._issued.discard(node_id)
        self._completed.discard(node_id)
        del self._nodes[node_id]
        del self._children[node_id]
        del self._unmet[node_id]

    # Introspection helpers (used by tests and demos).

    @property
    def completed_ids(self) -> frozenset[int]:
        return frozenset(self._completed)

    @property
    def queued_ids(self) -> tuple[int, ...]:
        return tuple(self._queue)

    def pending_count(self) -> int:
        return len(self._nodes) - len(self._completed)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._nodes))
