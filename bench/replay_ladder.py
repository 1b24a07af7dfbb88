"""Replay scaling ladder: pipeline workloads of growing size through ``run_simulation``.

Usage, from the root of a checkout:

    python3 bench/replay_ladder.py                 # writes BENCH_replay.json
    python3 bench/replay_ladder.py --repeats 9 --out /tmp/ladder.json
    python3 bench/replay_ladder.py --before-src ../other/src   # also time another checkout

Each rung generates a pipeline workload (``npus`` x ``microbatches``), then
replays it with validation and the timeline on, as ``ettrace simulate``
does, on a near-square torus at 62 GB/s and 1 us per link. One round takes
every rung once, in ladder order, each rung in a fresh interpreter, so the
rungs interleave across the ``--repeats`` rounds; within a round a rung
replays until its replays add up to ``ROUND_S`` process seconds, and the
round's sample is their mean. With ``--before-src``, that interpreter also
imports another checkout's ``src/`` under another package name, as
"before", and replays the two sides in turn, one replay each, until both
have their ``ROUND_S``; the rungs and rounds alternate which side goes
first. A replay starts after ``gc.collect()``, so every replay starts from
the same collector state. It is timed by ``time.process_time`` (CPU seconds
of the process, which other load on the machine disturbs less) and by
``time.perf_counter`` (wall seconds). After its timed replays, a rung
replays once more under ``tracemalloc`` for the peak of the memory that
replay allocates. Then each side writes the rung's traces to binary ``.et``
files and runs ``ettrace simulate --timeline --chrome`` on them in-process,
once, under ``tracemalloc``: the peak of the whole command, decoding
included.

Per side ("after" is this checkout) and rung the JSON holds the node count,
each round's process and wall seconds per replay, their minimum and
interquartile range (IQR), nodes/s at the minimum process time, the full
(generation 2) collections inside each round's replays, counted through
``gc.callbacks``, and the ``tracemalloc`` peaks of replay and of the
``simulate`` command, in bytes and bytes per node, the largest over the rounds.
Over the rungs it fits minimum process seconds against nodes by least
squares (``slope_us_per_node``) and on log-log axes (``loglog_exponent``,
1.0 for linear time). With ``--before-src`` it also holds, per rung, the
paired statistic: the ratio after/before of process seconds in each round,
whose two sides took turns in one interpreter, and the median and IQR of
those ratios.
Load on a shared machine moves both sides of a round alike, so a change is
resolved when the median ratio is further from 1 than its IQR; the spread of
either side alone (``iqr_share``) is often wider than the change.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNGS = ((16, 16), (64, 32), (128, 64), (256, 64))  # (npus, microbatches)
ROUND_S = 0.5  # process seconds of replay per rung and round, at least


def _timed_replay(simulator, traces, cfg) -> "tuple[float, float, int]":
    """Process and wall seconds of one replay, and the full collections inside it."""
    full = 0

    def count(phase: str, info: dict) -> None:
        nonlocal full
        full += phase == "start" and info["generation"] == 2

    gc.collect()
    gc.callbacks.append(count)
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        simulator.run_simulation(traces, cfg)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    finally:
        gc.callbacks.remove(count)
    return cpu, wall, full


def _peak_bytes(simulator, traces, cfg) -> int:
    """The ``tracemalloc`` peak of one replay."""
    gc.collect()
    tracemalloc.start()
    try:
        simulator.run_simulation(traces, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _command_peak_bytes(package: str, traces, topology: str) -> int:
    """The ``tracemalloc`` peak of one in-process ``ettrace simulate --timeline --chrome`` over ``traces``' files."""
    cli, codec = (importlib.import_module(f"{package}.{module}") for module in ("cli", "codec"))
    with tempfile.TemporaryDirectory() as tmp:
        codec.write_workload(traces, f"{tmp}/w", fmt="binary")
        argv = ["simulate", "--trace-dir", f"{tmp}/w", "--topology", topology, "--bw", "62e9", "--lat", "1e-6",
                "--timeline", f"{tmp}/t.csv", "--chrome", f"{tmp}/c.json", "--output", f"{tmp}/s.csv"]
        gc.collect()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    raise RuntimeError(f"{package}: simulate failed")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def _load(src: str, name: str):
    """The ``ettrace`` package in ``src``, imported as ``name``; its modules import each other relatively."""
    init = Path(src) / "ettrace" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def one_rung(sides: "dict[str, str]", rung: int) -> "dict[str, dict]":
    """One round's sample of rung ``rung`` for each side (label -> ``src``), replayed in turn."""
    npus, microbatches = RUNGS[rung]
    runs = {}
    for label, src in sides.items():
        name = _load(src, f"ettrace_{label}").__name__
        costmodel, simulator, workloads = (
            importlib.import_module(f"{name}.{module}") for module in ("costmodel", "simulator", "workloads")
        )
        spec = workloads.WorkloadSpec(npus=npus, parallelism=workloads.Parallelism.PIPELINE, microbatches=microbatches)
        d1, d2 = costmodel.near_square_dims(npus)
        topology = f"torus2d:{d1}x{d2}"  # the same on every side
        cfg = simulator.SimConfig(topology=costmodel.parse_topology(topology, 62e9, 1e-6))
        runs[label] = (simulator, workloads.generate_workload(spec), cfg)
    replays: dict[str, list] = {label: [] for label in sides}
    while min(sum(cpu for cpu, _, _ in done) for done in replays.values()) < ROUND_S:
        for label, run in runs.items():
            replays[label].append(_timed_replay(*run))
    return {
        label: {
            "nodes": sum(len(t.nodes) for t in runs[label][1]),
            "replays": len(done),
            "process_s": statistics.fmean(cpu for cpu, _, _ in done),
            "wall_s": statistics.fmean(wall for _, wall, _ in done),
            "full_gc": sum(full for _, _, full in done),
            "peak_bytes": _peak_bytes(*runs[label]),
            "command_peak_bytes": _command_peak_bytes(f"ettrace_{label}", runs[label][1], topology),
        }
        for label, done in replays.items()
    }


def _rung_in_child(sides: "dict[str, Path]", rung: int) -> "dict[str, dict]":
    argv = [sys.executable, str(Path(__file__).resolve()), "--rung", str(rung)]
    argv += [f"--side={label}={src}" for label, src in sides.items()]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def _spread(values: "list[float]") -> "tuple[float, float]":
    """(minimum, interquartile range) of ``values``."""
    if len(values) < 2:
        return min(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return min(values), q3 - q1


def summarize(rounds: "list[list[dict]]") -> dict:
    """Per-rung minimum and spread over ``rounds``, and the fits over the rungs."""
    rungs = []
    for (npus, microbatches), samples in zip(RUNGS, zip(*rounds)):
        cpu = [s["process_s"] for s in samples]
        wall = [s["wall_s"] for s in samples]
        min_cpu, iqr_cpu = _spread(cpu)
        min_wall, iqr_wall = _spread(wall)
        nodes = samples[0]["nodes"]
        rungs.append({
            "rung": f"pipeline-{npus}x{microbatches}",
            "npus": npus,
            "microbatches": microbatches,
            "nodes": nodes,
            "replays": [s["replays"] for s in samples],
            "process_s": [round(s, 4) for s in cpu],
            "wall_s": [round(s, 4) for s in wall],
            "min_process_s": round(min_cpu, 4),
            "iqr_process_s": round(iqr_cpu, 4),
            "iqr_share": round(iqr_cpu / statistics.median(cpu), 3),
            "min_wall_s": round(min_wall, 4),
            "iqr_wall_s": round(iqr_wall, 4),
            "nodes_per_s": round(nodes / min_cpu),
            "full_gc": [s["full_gc"] for s in samples],
            "peak_bytes": max(s["peak_bytes"] for s in samples),
            "peak_bytes_per_node": round(max(s["peak_bytes"] for s in samples) / nodes),
            "command_peak_bytes": max(s["command_peak_bytes"] for s in samples),
            "command_peak_bytes_per_node": round(max(s["command_peak_bytes"] for s in samples) / nodes),
        })
    return {"rungs": rungs, "fit": fit(rungs)}


def paired(names: "list[str]", before: "list[list[dict]]", after: "list[list[dict]]") -> "list[dict]":
    """Per rung, named by ``names``, the after/before ratio of process seconds in each round,
    and its median and IQR."""
    out = []
    for name, b, a in zip(names, zip(*before), zip(*after)):
        ratios = [x["process_s"] / y["process_s"] for x, y in zip(a, b)]
        _, iqr = _spread(ratios)
        out.append({
            "rung": name,
            "ratios": [round(r, 3) for r in ratios],
            "ratio_median": round(statistics.median(ratios), 3),
            "ratio_iqr": round(iqr, 3),
        })
    return out


def fit(rungs: "list[dict]") -> dict:
    """Least-squares slope of minimum process seconds on nodes, linear and log-log."""

    def slope(xs: "list[float]", ys: "list[float]") -> float:
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

    nodes = [r["nodes"] for r in rungs]
    seconds = [r["min_process_s"] for r in rungs]
    return {
        "slope_us_per_node": round(slope(nodes, seconds) * 1e6, 3),
        "loglog_exponent": round(slope([math.log(n) for n in nodes], [math.log(s) for s in seconds]), 3),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per side (default 5)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_replay.json"), help="output JSON path")
    parser.add_argument("--before-src", type=Path, help="another checkout's src/, timed alongside as 'before'")
    # One rung of a round in this process, as JSON on stdout, for each --side=label=src in turn.
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--side", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(one_rung(dict(side.split("=", 1) for side in args.side), args.rung)))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sides = {"after": ROOT / "src"}
    if args.before_src:
        if not (args.before_src / "ettrace" / "__init__.py").is_file():
            parser.error(f"--before-src {args.before_src} holds no ettrace package")
        sides = {"before": args.before_src.resolve(), **sides}
    rounds: dict[str, list] = {label: [] for label in sides}
    for i in range(args.repeats):
        for label in sides:
            rounds[label].append([])
        for rung in range(len(RUNGS)):
            order = list(sides) if (i + rung) % 2 == 0 else list(reversed(sides))
            samples = _rung_in_child({label: sides[label] for label in order}, rung)
            for label in sides:
                rounds[label][-1].append(samples[label])
        print(f"round {i + 1}/{args.repeats} done", file=sys.stderr)
    results = {label: summarize(rounds[label]) for label in sides}
    for label, result in results.items():
        for r in result["rungs"]:
            print(f"{label:>6} {r['rung']:>16}  {r['nodes']:>7} nodes  min {r['min_process_s']:7.3f} s  "
                  f"IQR {r['iqr_share']:6.1%}  {r['nodes_per_s']:>7} nodes/s  "
                  f"peak {r['peak_bytes_per_node']:>5} B/node  "
                  f"simulate peak {r['command_peak_bytes_per_node']:>5} B/node  full gc {r['full_gc']}",
                  file=sys.stderr)
    if args.before_src:
        results["paired"] = paired([r["rung"] for r in results["after"]["rungs"]], rounds["before"], rounds["after"])
        for r in results["paired"]:
            print(f"after/before {r['rung']:>16}  median {r['ratio_median']:.3f}  IQR {r['ratio_iqr']:.3f}",
                  file=sys.stderr)
    doc = {
        "benchmark": "replay_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        **results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({label: results[label]["fit"] for label in sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
