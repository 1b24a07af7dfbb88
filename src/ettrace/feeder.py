"""Dependency-aware node feeder.

Hands out nodes whose parents have all completed, in FIFO order (seeded by
ascending node id), and unlocks children as completions are reported back.
INVALID nodes are transparent: they complete on their own the moment their
parents finish, so consumers never see them. ``load`` takes only traces
that pass validation and builds their graph with ``schema.dependency_graph``,
the one builder validation and replay use too; ``seed`` and ``release`` are
the seeding and completion steps replay shares. Inside, a node is known by
its position in that graph, and ``add_node`` appends one; the public API
speaks in node ids.
"""
from __future__ import annotations

from collections import deque
from typing import Callable

from .schema import ETNode, NodeType, Trace, dependency_graph
from .validate import InvalidTraceError, validate_trace


class FeederError(RuntimeError):
    pass


def release(node: int, children, unmet, invalid: Callable[[int], bool], ready: Callable[[int], object]) -> list[int]:
    """Count ``node`` complete for each child, and pass each child left with no
    unfinished parent to ``ready``, in order. A child that ``invalid`` names
    completes in place instead, depth first, on an explicit stack; returns those.
    ``children`` and ``unmet`` are indexed by position."""
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


def seed(children, unmet, invalid: Callable[[int], bool]) -> "tuple[list[int], list[int]]":
    """Complete each INVALID node with no unfinished parent, and the INVALID
    chains that leaves with none; returns the positions completed, then the
    positions of the other nodes with no unfinished parent, ascending."""
    done = [pos for pos, left in enumerate(unmet) if not left and invalid(pos)]
    for pos in done[:]:
        done += release(pos, children, unmet, invalid, lambda child: None)  # the scan below finds them
    return done, [pos for pos, left in enumerate(unmet) if not left and not invalid(pos)]


class Feeder:
    def __init__(self, trace: "Trace | None" = None):
        self._nodes: list[ETNode] = []  # by position: load's id order, then add_node's
        self._unmet: list[int] = []  # parents not yet complete
        self._children: "list[tuple[int, ...] | list[int]]" = []  # tuples from load
        self._position: dict[int, int] = {}  # id -> position, of every node not removed
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
        self._nodes, self._unmet, self._children = dependency_graph(trace.nodes)
        self._position = {node.id: pos for pos, node in enumerate(self._nodes)}
        done, ready = seed(self._children, self._unmet, self._invalid)
        self._queue, self._issued, self._completed = deque(ready), set(), set(done)

    def _invalid(self, pos: int) -> bool:
        return self._nodes[pos].type is NodeType.INVALID

    def _at(self, node_id: int) -> int:
        if node_id not in self._position:
            raise FeederError(f"unknown node {node_id}")
        return self._position[node_id]

    def add_node(self, node: ETNode) -> None:
        """Add one node; its parents must already be known."""
        if node.id in self._position:
            raise FeederError(f"node {node.id} already present")
        missing = [p for p in node.parents if p not in self._position]
        if missing:
            raise FeederError(f"node {node.id}: unknown parents {missing}")
        pos = len(self._nodes)
        unmet = 0
        for parent in {self._position[pid] for pid in node.parents}:
            if parent not in self._completed:
                unmet += 1
                children = self._children[parent]
                if isinstance(children, tuple):  # loaded: copy once, then append in O(1)
                    children = self._children[parent] = list(children)
                children.append(pos)
        self._nodes.append(node)
        self._unmet.append(unmet)
        self._children.append([])  # it may gain children
        self._position[node.id] = pos
        if unmet == 0:
            if node.type is NodeType.INVALID:
                self._complete(pos)
            else:
                self._queue.append(pos)

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
        pos = self._queue.popleft()
        self._issued.add(pos)
        return self._nodes[pos]

    def push_back_issuable_node(self, node_id: int) -> None:
        """Return an issued-but-unfinished node to the tail of the ready queue."""
        pos = self._at(node_id)
        if pos not in self._issued:
            raise FeederError(f"node {node_id} is not currently issued")
        self._issued.discard(pos)
        self._queue.append(pos)

    def free_children_nodes(self, node_id: int) -> list[int]:
        """Mark ``node_id`` complete; returns ids that became issuable (in order)."""
        pos = self._at(node_id)
        if pos in self._completed:
            raise FeederError(f"node {node_id} completed twice")
        if pos not in self._issued:
            raise FeederError(f"node {node_id} was never issued")
        self._issued.discard(pos)
        freed = self._complete(pos)
        self._queue.extend(freed)
        return [self._nodes[child].id for child in freed]

    def _complete(self, pos: int) -> list[int]:
        """Mark ``pos`` complete; return the positions of the non-INVALID nodes it readied, in order."""
        freed: list[int] = []
        self._completed.add(pos)
        self._completed.update(release(pos, self._children, self._unmet, self._invalid, freed.append))
        return freed

    # ------------------------------------------------------------------
    # Lookup and removal
    # ------------------------------------------------------------------

    def lookup_node(self, node_id: int) -> ETNode:
        return self._nodes[self._at(node_id)]

    def remove_node(self, node_id: int) -> None:
        """Forget a node and unlink it from its parents; refused while any child still depends on it."""
        pos = self._at(node_id)
        live = [self._nodes[child].id for child in self._children[pos] if child not in self._completed]
        if live:
            raise FeederError(f"node {node_id} still has live children {live}")
        for parent in {self._position[pid] for pid in self._nodes[pos].parents if pid in self._position}:
            self._children[parent] = [child for child in self._children[parent] if child != pos]
        if pos in self._queue:
            self._queue.remove(pos)
        self._issued.discard(pos)
        self._completed.discard(pos)
        del self._position[node_id]

    # Introspection helpers (used by tests and demos).

    @property
    def completed_ids(self) -> frozenset[int]:
        return frozenset(self._nodes[pos].id for pos in self._completed)

    @property
    def queued_ids(self) -> tuple[int, ...]:
        return tuple(self._nodes[pos].id for pos in self._queue)

    def pending_count(self) -> int:
        return len(self._position) - len(self._completed)

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._position))
