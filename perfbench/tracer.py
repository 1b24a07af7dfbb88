"""Spans around calls into the ettrace layers, recorded from outside the package.

``instrument`` replaces public functions with timing wrappers at the names
their callers look them up under (module attributes, names bound by
``from ... import``, and class attributes), and puts the originals back on
exit. Nothing inside ``ettrace`` is edited.

Every wrapped call adds to a per-name tally: calls, total seconds, self
seconds (total minus the wrapped calls nested inside it) and an optional
count taken from its arguments or result. Coarse calls are also kept as
individual spans (name, start, end, parent span) for the span file. Hot
calls, such as feeder polls, are tallied only: one kept span per poll would
cost more memory than the replay itself.
"""
from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent span index or -1)
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, count]
        self.values: dict[str, float] = {}  # quantities read off results
        # Open frames: [time spent in wrapped children, nearest kept span index].
        self._stack: list[list] = [[0.0, -1]]

    def wrap(self, name: str, fn: Callable, *, keep: bool = True, count: "Callable | None" = None) -> Callable:
        """``fn`` with its calls timed under ``name``.

        ``count(result, args)`` returns a number added to the tally's count.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if keep:
                frame = [0.0, len(spans)]
                spans.append(None)  # reserve the index so children can name it
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if keep:
                    spans[frame[1]] = (name, start, end, parent[1])
            if count is not None:
                stat[3] += count(result, args)
            return result

        return functools.wraps(fn)(traced)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total_s(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def count(self, *names: str) -> int:
        return sum(self.stats[n][3] for n in names if n in self.stats)

    def names(self, prefix: str) -> list[str]:
        return [n for n in self.stats if n.startswith(prefix)]

    def to_json(self) -> dict:
        return {
            "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in self.spans],
            "tallies": {
                n: {"calls": c, "total_s": t, "self_s": s, "count": k} for n, (c, t, s, k) in sorted(self.stats.items())
            },
            "values": self.values,
        }


def write_spans(tracers: "list[Tracer]", path: Path) -> None:
    """Write the spans of every traced pass, one JSON document per pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for tracer in tracers:
            out.write(json.dumps(tracer.to_json()) + "\n")


def _size(result, args) -> int:
    return len(result)


def _input_size(result, args) -> int:
    return len(args[0])


def _node_count(result, args) -> int:
    return len(result.nodes)


def _found(result, args) -> int:
    return result is not None


@contextmanager
def instrument(tracer: Tracer, et):
    """Wrap the layer functions of the ettrace package ``et`` while the block runs."""
    builder, codec, costmodel, feeder = et.builder, et.codec, et.costmodel, et.feeder
    simulator, synth, validate, viz, workloads = et.simulator, et.synth, et.validate, et.viz, et.workloads
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, name: str, **opts) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, **opts))

    def record_result(result, args) -> int:
        callbacks = [row for row in result.timeline if row.event == viz.CALLBACK]
        tracer.values["makespan_cycles"] = result.makespan
        tracer.values["events"] = len(callbacks)
        tracer.values["batches"] = len({row.cycle for row in callbacks})
        exposed = sum(stats.exposed_comm for stats in result.per_npu.values())
        tracer.values["exposed_comm_share"] = exposed / (len(result.per_npu) * result.makespan or 1)
        return 0

    patch(workloads, "generate_workload", "workloads.generate_workload")
    patch(builder.TraceBuilder, "assign_dep", "builder.assign_dep", keep=False)
    patch(builder.TraceBuilder, "build", "builder.build", count=_node_count)
    patch(codec, "encode_trace", "codec.encode_trace", count=_size)
    patch(codec, "decode_trace", "codec.decode_trace", count=_input_size)
    # validate_trace is looked up under four bindings; one tally covers them.
    for owner in (validate, builder, codec, feeder):
        patch(owner, "validate_trace", "validate.validate_trace")
    for owner in (validate, simulator):
        patch(owner, "validate_workload", "validate.validate_workload")
    patch(simulator, "run_simulation", "simulator.run_simulation", count=record_result)
    patch(simulator, "emit_timeline_csv", "viz.emit_timeline_csv")
    patch(costmodel, "group_collective_time", "costmodel.group_collective_time", keep=False)
    patch(costmodel, "p2p_time", "costmodel.p2p_time", keep=False)
    patch(viz, "node_type_lookup", "viz.node_type_lookup")
    patch(viz, "timeline_to_chrome_trace", "viz.timeline_to_chrome_trace")
    patch(viz, "timeline_to_chrome_events", "viz.timeline_to_chrome_events", count=_size)
    patch(synth, "build_master_trace", "synth.build_master_trace")
    patch(synth, "fit_models", "synth.fit_models")
    patch(synth, "synthesize", "synth.synthesize")

    # The simulator constructs its feeders through its own ``Feeder`` name.
    base = feeder.Feeder
    methods = {}
    for attr, fn in vars(base).items():
        if inspect.isfunction(fn) and not attr.startswith("_"):
            count = _found if attr == "get_next_issuable_node" else None
            methods[attr] = tracer.wrap(f"feeder.{attr}", fn, keep=False, count=count)
    patches.append((simulator, "Feeder", base))
    simulator.Feeder = type(base.__name__, (base,), methods)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
