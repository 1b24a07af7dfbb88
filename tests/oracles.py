"""Independent reference implementations the tests check the package against.

Everything here is written from the definitions alone and deliberately avoids
the package's own code paths: exact rational arithmetic instead of floats,
step-by-step summation instead of closed forms, brute-force enumeration
instead of incremental bookkeeping, and a one-cycle-at-a-time replay loop
instead of an event heap.
"""
from __future__ import annotations

import itertools
from fractions import Fraction


# --------------------------------------------------------------------------
# Collective cost: per-step summation in exact rationals
# --------------------------------------------------------------------------


def collective_oracle(comm_type: str, size: int, n: int, bw: float, lat: float) -> Fraction:
    """Total time as an exact rational, accumulated one transfer step at a time.

    Ring schedules move S/N-sized chunks: reduce phases and gather phases each
    take N-1 steps; an all-to-all pays a single latency for its N-1 exchanges;
    point-to-point sends the whole payload once.
    """
    S, B, L = Fraction(size), Fraction(bw), Fraction(lat)
    if n == 1:
        return Fraction(0)
    chunk_time = (S / n) / B
    total = Fraction(0)
    if comm_type == "ALL_REDUCE":
        for _ in range(2 * (n - 1)):
            total += chunk_time + L
    elif comm_type in ("ALL_GATHER", "REDUCE_SCATTER"):
        for _ in range(n - 1):
            total += chunk_time + L
    elif comm_type == "ALL_TO_ALL":
        for _ in range(n - 1):
            total += chunk_time
        total += L
    elif comm_type in ("SEND", "RECV"):
        total = S / B + L
    else:
        raise ValueError(f"unknown comm type {comm_type!r}")
    return total


def hierarchical_all_reduce_oracle(
    size: int, n1: int, n2: int, bw1: float, bw2: float, lat1: float = 0.0, lat2: float = 0.0
) -> Fraction:
    """Reduce-scatter within dim 1, all-reduce the shard across dim 2, all-gather back."""
    total = collective_oracle("REDUCE_SCATTER", size, n1, bw1, lat1)
    total += collective_oracle("ALL_REDUCE", Fraction(size, max(1, n1)), n2, bw2, lat2)
    total += collective_oracle("ALL_GATHER", size, n1, bw1, lat1)
    return total


# --------------------------------------------------------------------------
# DAG orders
# --------------------------------------------------------------------------


def is_topological(parents: "dict[int, set[int]]", order: "list[int]") -> bool:
    seen: set[int] = set()
    if sorted(order) != sorted(parents):
        return False
    for node in order:
        if not parents[node] <= seen:
            return False
        seen.add(node)
    return True


def all_topological_orders(parents: "dict[int, set[int]]") -> "set[tuple[int, ...]]":
    """Every topological order, by filtering all permutations (small DAGs only)."""
    nodes = sorted(parents)
    return {
        perm for perm in itertools.permutations(nodes) if is_topological(parents, list(perm))
    }


def unpeelable_oracle(parents: "dict[int, list[object]]") -> "set[int]":
    """Ids that peeling cannot remove, by full rescans until nothing changes.

    A node peels once every parent that counts has peeled; only int parents
    that name another node count, so dangling, self and non-int parents never
    hold a node back. What is left is on a cycle or depends on one.
    """
    peeled: set[int] = set()
    changed = True
    while changed:
        changed = False
        for node, ps in parents.items():
            if node not in peeled and all(
                p in peeled for p in ps if type(p) is int and p in parents and p != node
            ):
                peeled.add(node)
                changed = True
    return set(parents) - peeled


# --------------------------------------------------------------------------
# Single-NPU replay: one-cycle-at-a-time stepping
# --------------------------------------------------------------------------


def replay_oracle(
    nodes: "dict[int, tuple[str, int, set[int]]]", max_cycles: int = 10_000_000
) -> "tuple[int, dict[int, tuple[int, int]]]":
    """Makespan and per-node (start, finish) for one NPU.

    ``nodes`` maps id -> (resource class name, duration in cycles, parents).
    Rules mirrored from the contract, not the implementation: one in-flight
    node per class; ready nodes enter their class queue in ascending id order;
    finishes are handled before new issues within the same cycle.
    """
    pending = dict(nodes)
    done: set[int] = set()
    queued: "dict[str, list[int]]" = {}
    entered: set[int] = set()
    running: "dict[str, tuple[int, int]]" = {}  # class -> (node, finish cycle)
    spans: "dict[int, tuple[int, int]]" = {}

    for cycle in range(max_cycles + 1):
        for cls in list(running):
            node, finish = running[cls]
            if finish == cycle:
                del running[cls]
                done.add(node)
        for node in sorted(pending):
            if node not in entered and pending[node][2] <= done:
                queued.setdefault(pending[node][0], []).append(node)
                entered.add(node)
        for cls, queue in queued.items():
            if cls not in running and queue:
                node = queue.pop(0)
                duration = pending[node][1]
                running[cls] = (node, cycle + duration)
                spans[node] = (cycle, cycle + duration)
                del pending[node]
        if not pending and not running:
            if any(queued.values()):
                raise AssertionError("queued nodes with nothing pending or running")
            return cycle, spans
    raise AssertionError(f"oracle did not finish within {max_cycles} cycles")


# --------------------------------------------------------------------------
# Busy/overlap accounting from raw intervals
# --------------------------------------------------------------------------


def interval_union_length(intervals: "list[tuple[int, int]]") -> int:
    total = 0
    end = None
    for start, finish in sorted(intervals):
        if end is None or start >= end:
            total += finish - start
            end = finish
        elif finish > end:
            total += finish - end
            end = finish
    return total


def exposed_time_oracle(
    comm: "list[tuple[int, int]]", compute: "list[tuple[int, int]]"
) -> int:
    """Communication time not hidden behind compute, by scanning cycle sets."""
    comm_cycles: set[int] = set()
    for start, finish in comm:
        comm_cycles.update(range(start, finish))
    compute_cycles: set[int] = set()
    for start, finish in compute:
        compute_cycles.update(range(start, finish))
    return len(comm_cycles - compute_cycles)
