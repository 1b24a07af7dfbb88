"""Replay scaling ladder: pipeline workloads of growing size through ``run_simulation``.

Usage, from the root of a checkout:

    python3 bench/replay_ladder.py                 # writes BENCH_replay.json
    python3 bench/replay_ladder.py --repeats 5 --out /tmp/ladder.json

Each rung generates a pipeline workload (``npus`` x ``microbatches``), then
replays it ``--repeats`` times with validation and the timeline on, as
``ettrace simulate`` does, on a near-square torus at 62 GB/s and 1 us per
link. A replay starts after ``gc.collect()``, so every repeat starts from the
same collector state. Per rung the JSON holds the node count, each repeat's
wall seconds, the median, nodes/s at the median, and the full (generation 2)
collections that ran inside each replay, counted through ``gc.callbacks`` in
this process. Over the rungs it fits seconds against nodes by least squares
(``slope_us_per_node``) and on log-log axes (``loglog_exponent``, 1.0 for
linear time). It imports ``ettrace`` from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ettrace import costmodel, simulator, workloads  # noqa: E402

RUNGS = ((16, 16), (64, 32), (128, 64), (256, 64))  # (npus, microbatches)


def _timed_replay(traces, cfg) -> "tuple[float, int]":
    """Wall seconds of one replay and the full collections inside it."""
    full = 0

    def count(phase: str, info: dict) -> None:
        nonlocal full
        full += phase == "start" and info["generation"] == 2

    gc.collect()
    gc.callbacks.append(count)
    try:
        start = time.perf_counter()
        simulator.run_simulation(traces, cfg)
        seconds = time.perf_counter() - start
    finally:
        gc.callbacks.remove(count)
    return seconds, full


def run_rung(npus: int, microbatches: int, repeats: int) -> dict:
    spec = workloads.WorkloadSpec(npus=npus, parallelism=workloads.Parallelism.PIPELINE, microbatches=microbatches)
    traces = workloads.generate_workload(spec)
    d1, d2 = costmodel.near_square_dims(npus)
    cfg = simulator.SimConfig(topology=costmodel.parse_topology(f"torus2d:{d1}x{d2}", 62e9, 1e-6))
    runs = [_timed_replay(traces, cfg) for _ in range(repeats)]
    seconds = statistics.median(s for s, _ in runs)
    nodes = sum(len(t.nodes) for t in traces)
    return {
        "rung": f"pipeline-{npus}x{microbatches}",
        "npus": npus,
        "microbatches": microbatches,
        "nodes": nodes,
        "replay_s": [round(s, 4) for s, _ in runs],
        "median_replay_s": round(seconds, 4),
        "nodes_per_s": round(nodes / seconds),
        "full_gc": [full for _, full in runs],
    }


def fit(rungs: "list[dict]") -> dict:
    """Least-squares slope of seconds on nodes, linear and log-log."""

    def slope(xs: "list[float]", ys: "list[float]") -> float:
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    nodes = [r["nodes"] for r in rungs]
    seconds = [r["median_replay_s"] for r in rungs]
    return {
        "slope_us_per_node": round(slope(nodes, seconds) * 1e6, 3),
        "loglog_exponent": round(slope([math.log(n) for n in nodes], [math.log(s) for s in seconds]), 3),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3, help="replays per rung (default 3)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_replay.json"), help="output JSON path")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    rungs = []
    for npus, microbatches in RUNGS:
        rungs.append(run_rung(npus, microbatches, args.repeats))
        r = rungs[-1]
        print(f"{r['rung']:>16}  {r['nodes']:>7} nodes  {r['median_replay_s']:8.3f} s  "
              f"{r['nodes_per_s']:>7} nodes/s  full gc {r['full_gc']}", file=sys.stderr)
    doc = {
        "benchmark": "replay_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "rungs": rungs,
        "fit": fit(rungs),
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc["fit"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
