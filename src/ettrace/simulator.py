"""Deterministic replay of per-NPU traces over a modeled machine.

Each NPU owns three resource classes (memory, compute, network); one node of
each class may be in flight at a time and further ready nodes of a busy class
wait FIFO. Collectives rendezvous: the k-th collective a rank issues in a
communicator matches the k-th of every other member, the transfer starts when
the last member arrives, and all members finish on the same cycle. SEND/RECV
pair up by explicit tag (or issue order per directed rank pair) and also
complete simultaneously. Both kinds of match go through one rendezvous;
``SimResult.launches`` logs the collective launches, which
``synth.build_master_trace`` turns into master ops.
Every attribute replay needs is read once, before the first event, by
``_lower``, in one pass over each node's attributes, into per-NPU lists
indexed by position in ``schema.dependency_graph``'s id order; replay seeds
and releases that graph through ``feeder.seed`` and ``feeder.release``, as
``Feeder`` does, and builds no ``Feeder``. Traces are validated and lowered
one at a time, and none is held once lowered. The event loop is integer-cycle
and fully deterministic: identical inputs produce byte-identical timelines. It
records the timeline and the node spans as flat lists of ints, beside each
NPU's node ids and names by position, and builds the timeline records,
``TimelineRow``s and the ``node_spans`` dict only when they are read.
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from . import costmodel, workloads
from .costmodel import Topology
from .feeder import release, seed
from .schema import (
    ATTR_COMM_GROUP,
    ATTR_COMM_PEER,
    ATTR_COMM_SIZE,
    ATTR_COMM_TAG,
    ATTR_COMM_TYPE,
    ATTR_NUM_OPS,
    ATTR_RUNTIME,
    ATTR_TENSOR_SIZE,
    ETNode,
    NodeType,
    Trace,
    dependency_graph,
)
# validate_workload is not called here; perfbench/tracer.py wraps it under this name.
from .validate import InvalidTraceError, ValidationReport, Violation, validate_workload, workload_check  # noqa: F401
from .viz import CALLBACK, ISSUE, TID_COMM, TID_COMPUTE, TID_MEMORY, TimelineRow, emit_timeline_csv


class TimingMode(Enum):
    FROM_TRACE = "from_trace"
    MODEL = "model"


# Resource classes, as indices in the fixed order the engine issues them, and their Chrome lanes.
_MEMORY, _COMPUTE, _NETWORK = range(3)
_LANES = (TID_MEMORY, TID_COMPUTE, TID_COMM)

# Module-level aliases: reading an Enum member off its class runs
# Python-level Enum code, once per node in ``_lower``.
_INVALID, _COMP, _MEM_LOAD, _MEM_STORE = NodeType.INVALID, NodeType.COMP, NodeType.MEM_LOAD, NodeType.MEM_STORE
_SEND, _COLL = NodeType.COMM_SEND, NodeType.COMM_COLL


@dataclass(frozen=True)
class SimConfig:
    topology: Topology
    compute_timing: TimingMode = TimingMode.FROM_TRACE
    comm_timing: TimingMode = TimingMode.MODEL
    cycle_time: float = 1e-9  # seconds per cycle
    compute_rate: "float | None" = None  # ops/sec for MODEL compute
    mem_bandwidth: float = 1e12  # bytes/sec for MODEL memory nodes

    def __post_init__(self) -> None:
        if not 0 < self.cycle_time < math.inf:
            raise ValueError(f"cycle_time must be positive and finite, got {self.cycle_time}")
        if not 0 < self.mem_bandwidth < math.inf:
            raise ValueError(f"mem_bandwidth must be positive and finite, got {self.mem_bandwidth}")
        if self.compute_rate is not None and not 0 < self.compute_rate < math.inf:
            raise ValueError(f"compute_rate must be positive and finite, got {self.compute_rate}")

    def seconds_to_cycles(self, seconds: float) -> int:
        try:
            return max(0, math.ceil(seconds / self.cycle_time))
        except (OverflowError, ValueError):  # ceil of an infinity or a NaN
            raise ValueError(
                f"duration {seconds} s at cycle time {self.cycle_time} s is not a finite cycle count"
            ) from None


@dataclass(frozen=True)
class NpuStats:
    compute_busy: int
    comm_busy: int
    mem_busy: int
    exposed_comm: int


@dataclass
class SimResult:
    makespan: int
    per_npu: "dict[int, NpuStats]"
    spans: "list[int]"  # npu, node id, start, finish of each node, flat, in the order replay priced them
    events: "list[int]"  # npu, position (~position for a callback), cycle of each event, flat, in replay order
    ids: "dict[int, list[int]]"  # npu -> its node ids, by position in id order
    names: "dict[int, list[str]]"  # npu -> its node names, by position in id order
    lanes: "dict[int, bytes]"  # npu -> the Chrome lane of each position's resource class; 0 for INVALID
    # (rendezvous key, comm_type, [(npu, node id, amount, comm_type)]) of each collective, in launch order
    launches: "list[tuple[tuple, str, list[tuple]]]" = field(default_factory=list)

    def rows(self) -> "Iterator[tuple[str, int, int, int, str]]":
        """(event, npu, cycle, node id, name) of each timeline event, in replay order."""
        ids, names, it = self.ids, self.names, iter(self.events)
        for npu, at, cycle in zip(it, it, it):
            event, pos = (ISSUE, at) if at >= 0 else (CALLBACK, ~at)
            yield event, npu, cycle, ids[npu][pos], names[npu][pos]

    @property
    def records(self) -> "list[tuple[str, int, int, int, str]]":
        """The timeline as plain tuples, built anew on each read."""
        return list(self.rows())

    @property
    def node_spans(self) -> "dict[tuple[int, int], tuple[int, int]]":
        """(npu, node) -> (start, finish), built anew on each read."""
        it = iter(self.spans)
        return {(npu, node): (start, finish) for npu, node, start, finish in zip(it, it, it, it)}

    @property
    def timeline(self) -> list[TimelineRow]:
        """The timeline as ``TimelineRow``s, built anew on each read."""
        return list(map(TimelineRow._make, self.rows()))

    def timeline_csv(self) -> str:
        return emit_timeline_csv(self.rows())

    def lane(self, npu: int, node_id: int) -> int:
        """The Chrome lane (``viz.TID_*``) of a replayed node; ``viz.chrome_trace_chunks`` takes this method."""
        return self.lanes[npu][bisect_left(self.ids[npu], node_id)]


@dataclass(frozen=True)
class StuckNode:
    npu_id: int
    node_id: int
    name: str
    state: str  # "in-flight" | "queued" | "blocked"


class DeadlockError(RuntimeError):
    """No event can make progress while unfinished nodes remain."""

    def __init__(self, stuck: Sequence[StuckNode], waiting: "Iterable[tuple[tuple, Sequence[tuple]]]" = ()):
        self.stuck = tuple(stuck)
        # (key, arrived members) of each rendezvous that never launched, p2p included;
        # members as in ``SimResult.launches``
        self.waiting = tuple((key, tuple(members)) for key, members in waiting)
        shown = ", ".join(
            f"npu {s.npu_id} node {s.node_id} ({s.name!r}, {s.state})" for s in self.stuck[:20]
        )
        more = "" if len(self.stuck) <= 20 else f" ... and {len(self.stuck) - 20} more"
        super().__init__(f"simulation deadlocked; stuck nodes: {shown}{more}")


def compute_breakdown(result: SimResult) -> list[dict]:
    """Per-NPU compute vs exposed-communication table (cycle counts)."""
    return [
        {
            "npu_id": npu,
            "compute": stats.compute_busy,
            "exposed_comm": stats.exposed_comm,
        }
        for npu, stats in sorted(result.per_npu.items())
    ]


# --------------------------------------------------------------------------
# Engine internals
# --------------------------------------------------------------------------


@dataclass(eq=False)
class _Npu:
    """One NPU's lowered trace and replay state; per-node lists are indexed by position in id order."""

    npu_id: int
    ids: "list[int]"
    names: "list[str]"
    ops: "list[tuple | None]"  # (cls, amount, sync) from _lower; None for INVALID
    unmet: "list[int]"  # parents not yet complete
    children: "list[tuple[int, ...]]"  # positions, ascending
    queues: "list[deque[int]]" = field(default_factory=lambda: [deque(), deque(), deque()])
    busy: "list[int | None]" = field(default_factory=lambda: [None, None, None])
    # per class: issue and callback cycle of each node, flat; a class runs one node at a time
    intervals: "list[list[int]]" = field(default_factory=lambda: [[], [], []])

    def __post_init__(self) -> None:
        """Collapse the INVALID sources, then queue every ready node in id order, as ``Feeder.load`` does."""
        ops = self.ops
        for pos in seed(self.children, self.unmet, lambda c: ops[c] is None)[1]:
            self.queues[ops[pos][0]].append(pos)

    def complete(self, pos: int) -> None:
        """Mark ``pos`` complete and queue, in order, the nodes it readies."""
        ops, queues = self.ops, self.queues
        release(pos, self.children, self.unmet, lambda c: ops[c] is None, lambda c: queues[ops[c][0]].append(c))

    def issue(self, cycle: int, start: "Callable[[_Npu, int, int], None]") -> None:
        """Start the head of each idle class's queue, in class order."""
        for cls, queue in enumerate(self.queues):
            if queue and self.busy[cls] is None:
                start(self, queue.popleft(), cycle)


def _need(value: "int | None", npu_id: int, node: ETNode, what: str) -> int:
    if value is None:
        raise ValueError(f"npu {npu_id} node {node.id}: {what}")
    return value


def _lower(trace: Trace, cfg: SimConfig, groups: "dict[str, set[int]]", syncs: "dict[tuple, tuple]") -> _Npu:
    """Read every attribute of ``trace`` that replay uses, once, into its ``_Npu``.

    Each non-INVALID node's op is ``(cls, amount, sync)``. ``amount``
    is the node's duration in cycles, except for communication under MODEL
    timing, where it is the payload in bytes that the cost model prices when
    the rendezvous launches. ``sync`` is None for nodes that run alone. For
    communication it is ``(counter, stem, ranks, comm_type)``: the rendezvous
    key is ``stem`` plus the arrival's number on this rank's ``counter``
    (tagged SEND/RECV use the stem alone), and the rendezvous launches once
    ``len(ranks)`` members have arrived. ``ranks`` is every rank that uses a
    collective's group, or ``(src, dst)``; ``comm_type`` is None for SEND/RECV.

    ``trace`` has passed validation, so each node's attribute names are
    unique, every well-known attribute has its kind, and communication nodes
    carry the attributes their kind requires. What the config decides is
    checked here, in id order: a node that lacks its timing input raises
    ValueError naming it, and so does, under MODEL comm timing, a
    communication node whose own rank or peer is not on the topology. A
    workload's traces share ``groups`` (group -> its ranks) and ``syncs``, so
    untagged SEND/RECV share one ``sync`` per ``(src, dst, side)``.
    """
    trace_compute = cfg.compute_timing is TimingMode.FROM_TRACE
    trace_comm = cfg.comm_timing is TimingMode.FROM_TRACE
    model_comm = cfg.comm_timing is TimingMode.MODEL
    fabric = cfg.topology.npus if model_comm else 0
    npu = trace.npu_id
    order, unmet, children = dependency_graph(trace.nodes)
    ops: list = [None] * len(order)
    for pos, node in enumerate(order):
        kind = node.type
        if kind is _INVALID:
            continue
        attrs = {attr.name: attr.value for attr in node.attributes}
        runtime = attrs.get(ATTR_RUNTIME)
        sync = None
        if kind is _COMP:
            cls = _COMPUTE
            num_ops = None if trace_compute else attrs.get(ATTR_NUM_OPS)
            if num_ops is not None and cfg.compute_rate is not None:
                amount = cfg.seconds_to_cycles(num_ops / cfg.compute_rate)
            elif trace_compute:
                what = "FROM_TRACE compute timing requires a 'runtime' attribute"
                amount = _need(runtime, npu, node, what)
            else:
                what = "MODEL compute timing requires 'num_ops' and a compute_rate, or 'runtime'"
                amount = _need(runtime, npu, node, what)
        elif kind is _MEM_LOAD or kind is _MEM_STORE:
            cls = _MEMORY
            size = attrs.get(ATTR_TENSOR_SIZE)
            if size is not None:
                amount = cfg.seconds_to_cycles(size / cfg.mem_bandwidth)
            else:
                amount = _need(runtime, npu, node, "memory node needs 'tensor_size' or 'runtime'")
        else:
            cls = _NETWORK
            if trace_comm:
                amount = _need(runtime, npu, node, "FROM_TRACE comm timing requires 'runtime'")
            else:
                amount = attrs[ATTR_COMM_SIZE]
            if kind is _COLL:
                group = attrs[ATTR_COMM_GROUP]
                ranks = groups.setdefault(group, set())
                ranks.add(npu)
                counter, stem, comm_type = (npu, group), (group,), attrs[ATTR_COMM_TYPE]
            else:
                peer = attrs[ATTR_COMM_PEER]
                ranks = (npu, peer) if kind is _SEND else (peer, npu)
                tag = attrs.get(ATTR_COMM_TAG)
                comm_type = None
                if tag is None:
                    counter, stem = (*ranks, "send" if kind is _SEND else "recv"), (*ranks, "seq")
                else:
                    counter, stem = None, (*ranks, "tag", tag)
            sync = syncs.setdefault((counter, stem, comm_type), (counter, stem, ranks, comm_type))
            if model_comm:
                # The cost model places every rank it prices on the fabric.
                for rank in (npu,) if kind is _COLL else ranks:
                    if not 0 <= rank < fabric:
                        raise ValueError(
                            f"npu {npu} node {node.id}: rank {rank} outside topology of {fabric} NPUs"
                        )
        ops[pos] = (cls, amount, sync)
    return _Npu(npu, [node.id for node in order], [node.name for node in order], ops, unmet, children)


def run_simulation(
    traces: Iterable[Trace],
    cfg: SimConfig,
    *,
    collect_timeline: bool = True,
) -> SimResult:
    """Replay ``traces``, any iterable of them, on the modeled machine described by ``cfg``.

    Each trace is validated and lowered before the next is taken, and none is
    held after. Raises InvalidTraceError naming every violation of every
    trace, else the lowering ValueError of the lowest npu_id, and DeadlockError
    when unfinished nodes remain but nothing can move (e.g. collective order
    disagreement across ranks, or an unmatched p2p).
    """
    check = workload_check()
    violations: list[Violation] = []
    failed: "tuple[int, ValueError] | None" = None  # the lowering error of the lowest npu_id
    groups: dict[str, set[int]] = {}
    syncs: dict[tuple, tuple] = {}  # (counter, stem, comm_type) -> the one sync of that value

    def gate(trace: Trace) -> "_Npu | None":
        nonlocal failed
        violations.extend(check(trace))
        if not violations:  # the first violation ends lowering
            try:
                return _lower(trace, cfg, groups, syncs)
            except ValueError as exc:
                if failed is None or trace.npu_id < failed[0]:
                    failed = trace.npu_id, exc
        return None

    # map lets each trace go once gate returns; a loop variable would hold it while the next decodes
    lowered = list(filter(None, map(gate, traces)))
    del groups, syncs  # replay reads only the syncs the ops hold
    if violations:
        raise InvalidTraceError(ValidationReport(tuple(violations)), "refusing to simulate invalid workload")
    if failed is not None:
        raise failed[1]
    npus = {npu.npu_id: npu for npu in sorted(lowered, key=lambda npu: npu.npu_id)}
    counters: dict[tuple, int] = {}  # sync counter -> number of the last arrival
    # rendezvous key -> members arrived so far, as (npu, node id, amount, comm_type, position)
    waiting: dict[tuple, list[tuple]] = {}
    prices: dict[tuple, float] = {}  # (comm_type, payload, group or (src, dst)) -> seconds of that launch
    launches: list[tuple] = []
    model_comm = cfg.comm_timing is TimingMode.MODEL

    heap: list[tuple[int, int, int]] = []  # (cycle, npu, position): a cycle's callbacks pop in (npu, node) order
    spans: list[int] = []
    events: list[int] = []

    def launch(key: tuple, members: "list[tuple]", ranks: "set[int] | tuple[int, int]", cycle: int) -> None:
        """Start a full rendezvous.

        One whose comm types disagree stays waiting on purpose: that is the
        cross-rank ordering bug deadlock detection exists to report.
        """
        comm_type = members[0][3]
        if any(m[3] != comm_type for m in members):
            return
        del waiting[key]
        dur = max(m[2] for m in members)
        if model_comm:
            # A group's ranks are fixed once lowered, so its name stands for them.
            price = (comm_type, dur, ranks if comm_type is None else key[0])
            if price not in prices:
                prices[price] = (
                    costmodel.p2p_time(dur, *ranks, cfg.topology)
                    if comm_type is None
                    else costmodel.group_collective_time(comm_type, dur, ranks, cfg.topology)
                )
            dur = cfg.seconds_to_cycles(prices[price])
        if comm_type is not None:
            members.sort()  # collective spans are recorded in rank order, a pair's in arrival order
            launches.append((key, comm_type, [m[:4] for m in members]))
        end = cycle + dur
        for npu_id, node_id, _, _, pos in members:
            spans.extend((npu_id, node_id, cycle, end))
            heapq.heappush(heap, (end, npu_id, pos))

    def start(npu: _Npu, pos: int, cycle: int) -> None:
        cls, amount, sync = npu.ops[pos]
        npu.busy[cls] = pos
        npu.intervals[cls].append(cycle)
        node_id = npu.ids[pos]
        if collect_timeline:
            events.extend((npu.npu_id, pos, cycle))
        if sync is None:
            spans.extend((npu.npu_id, node_id, cycle, end := cycle + amount))
            heapq.heappush(heap, (end, npu.npu_id, pos))
            return
        # Arrivals are numbered in the order this rank issues them.
        counter, key, ranks, comm_type = sync
        if counter is not None:
            counters[counter] = counters.get(counter, -1) + 1
            key += (counters[counter],)
        members = waiting.setdefault(key, [])
        members.append((npu.npu_id, node_id, amount, comm_type, pos))
        if len(members) == len(ranks):
            launch(key, members, ranks, cycle)

    now = 0
    for npu in npus.values():
        npu.issue(now, start)
    while heap:
        now = heap[0][0]
        called_back: dict[_Npu, None] = {}  # in ascending NPU id
        while heap and heap[0][0] == now:
            _, npu_id, pos = heapq.heappop(heap)
            npu = npus[npu_id]
            cls = npu.ops[pos][0]
            if collect_timeline:
                events.extend((npu_id, ~pos, now))
            npu.intervals[cls].append(now)
            npu.busy[cls] = None
            npu.complete(pos)
            called_back[npu] = None
        # Only a callback changes an NPU's class queues, so the NPUs without
        # one in this batch have nothing new to issue.
        for npu in called_back:
            npu.issue(now, start)

    stuck = _collect_stuck(npus)
    if stuck:
        raise DeadlockError(stuck, ((key, [m[:4] for m in members]) for key, members in waiting.items()))

    per_npu = {npu_id: _stats(npu) for npu_id, npu in npus.items()}
    ids = {npu_id: npu.ids for npu_id, npu in npus.items()}
    names = {npu_id: npu.names for npu_id, npu in npus.items()}
    lanes = {npu_id: bytes(0 if op is None else _LANES[op[0]] for op in npu.ops) for npu_id, npu in npus.items()}
    # Every span's finish is popped off the heap, the last of them at ``now``.
    return SimResult(now, per_npu, spans, events, ids, names, lanes, launches)


def _collect_stuck(npus: "dict[int, _Npu]") -> list[StuckNode]:
    """Each NPU's in-flight, queued and blocked nodes, in id order. Replay ends with
    every ready node queued, in flight or complete, so the rest wait on parents."""
    stuck: list[StuckNode] = []
    for npu_id in sorted(npus):
        npu = npus[npu_id]
        in_flight = sorted(pos for pos in npu.busy if pos is not None)
        queued = sorted(pos for queue in npu.queues for pos in queue)
        blocked = [pos for pos, unmet in enumerate(npu.unmet) if unmet]
        for state, positions in (("in-flight", in_flight), ("queued", queued), ("blocked", blocked)):
            stuck.extend(StuckNode(npu_id, npu.ids[pos], npu.names[pos], state) for pos in positions)
    return stuck


def _overlap(a: "list[int]", b: "list[int]") -> int:
    """Total overlap length of two flat lists of sorted non-overlapping (start, end) intervals."""
    total = 0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i], b[j])
        hi = min(a[i + 1], b[j + 1])
        if lo < hi:
            total += hi - lo
        if a[i + 1] <= b[j + 1]:
            i += 2
        else:
            j += 2
    return total


def _stats(npu: _Npu) -> NpuStats:
    mem, comp, net = npu.intervals
    compute_busy = sum(comp[1::2]) - sum(comp[::2])
    comm_busy = sum(net[1::2]) - sum(net[::2])
    mem_busy = sum(mem[1::2]) - sum(mem[::2])
    exposed = comm_busy - _overlap(net, comp)
    return NpuStats(compute_busy=compute_busy, comm_busy=comm_busy, mem_busy=mem_busy, exposed_comm=exposed)


# --------------------------------------------------------------------------
# Sweeps
# --------------------------------------------------------------------------


def sweep_npus(
    preset: str,
    npus_list: Sequence[int],
    kind: "costmodel.TopologyKind | str",
    bandwidth: "float | str | tuple[float, float]",
    latency: "float | str | tuple[float, float]" = 0.0,
    cycle_time: float = 1e-9,
) -> list[dict]:
    """Scaling sweep: one row per NPU count, performance normalized to the first cell."""
    cells = [(n, bandwidth) for n in npus_list]
    return _sweep(preset, cells, kind, latency, cycle_time, lambda topo: {"dims": f"{topo.dim1}x{topo.dim2}"})


def sweep_bandwidth(
    preset: str,
    npus: int,
    kind: "costmodel.TopologyKind | str",
    bandwidths: Sequence["float | str | tuple[float, float]"],
    latency: "float | str | tuple[float, float]" = 0.0,
    cycle_time: float = 1e-9,
) -> list[dict]:
    """Bandwidth sweep at a fixed NPU count, normalized to the first cell."""
    cells = [(npus, bw) for bw in bandwidths]
    return _sweep(preset, cells, kind, latency, cycle_time, lambda topo: {"bw1": topo.bw1, "bw2": topo.bw2})


def _sweep(
    preset: str,
    cells: "list[tuple[int, float | str | tuple[float, float]]]",
    kind: "costmodel.TopologyKind | str",
    latency: "float | str | tuple[float, float]",
    cycle_time: float,
    columns: "Callable[[Topology], dict]",
) -> list[dict]:
    """One row per ``(npus, bandwidth)`` cell, with ``columns(topology)`` after the NPU count.

    The workload is generated again only when the NPU count changes.
    """
    rows: list[dict] = []
    traces_npus, traces = None, []
    for npus, bandwidth in cells:
        topo = _template_topology(kind, npus, bandwidth, latency)
        if npus != traces_npus:
            traces_npus, traces = npus, workloads.generate_workload(workloads.preset_spec(preset, npus))
        result = run_simulation(traces, SimConfig(topology=topo, cycle_time=cycle_time), collect_timeline=False)
        base_makespan = rows[0]["makespan_cycles"] if rows else result.makespan
        rows.append(
            {
                "preset": preset,
                "npus": npus,
                **columns(topo),
                "makespan_cycles": result.makespan,
                "perf_norm": base_makespan / result.makespan,
                "exposed_share": _exposed_share(result),
            }
        )
    return rows


def _template_topology(
    kind: "costmodel.TopologyKind | str",
    npus: int,
    bandwidth: "float | str | tuple[float, float]",
    latency: "float | str | tuple[float, float]",
) -> Topology:
    """A near-square ``kind`` fabric of ``npus`` NPUs."""
    kind = costmodel.TopologyKind(kind)
    d1, d2 = costmodel.near_square_dims(npus)
    return Topology(kind, d1, d2, *costmodel.dim_pair(bandwidth, "bandwidth"), *costmodel.dim_pair(latency, "latency"))


def _exposed_share(result: SimResult) -> float:
    total_exposed = sum(s.exposed_comm for s in result.per_npu.values())
    return total_exposed / (len(result.per_npu) * result.makespan)


def sweep_rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return ""
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _csv_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)
