"""Replay ladder: pipeline workloads of growing size through ``run_simulation``.

Usage, from the root of a checkout (``bench/ladder.py`` gives the method):

    python3 bench/replay_ladder.py                 # writes BENCH_replay.json
    python3 bench/replay_ladder.py --repeats 9 --out /tmp/ladder.json
    python3 bench/replay_ladder.py --before-src ../other/src   # also time another checkout

Each rung generates a pipeline workload (``npus`` x ``microbatches``) with each
side's code, then replays it with validation and the timeline on, as ``ettrace
simulate`` does, on a near-square torus at 62 GB/s and 1 us per link. Within a
round the sides replay in turn, one replay each, until each has its
``ROUND_S`` process seconds, and the round's sample is their mean. After its
timed replays, a side replays once more under ``tracemalloc`` for the peak of
the memory that replay allocates. Then it writes the rung's traces to binary
``.et`` files and runs ``ettrace simulate --timeline --chrome`` on them
in-process, once, under ``tracemalloc``: the peak of the whole command,
decoding included.

Its columns per rung are the node count, the replays of each round, nodes/s at
the minimum process time, the full (generation 2) collections inside each
round's replays, and the ``tracemalloc`` peaks of replay and of the
``simulate`` command, in bytes and bytes per node, the largest over the
rounds. Over the rungs it fits minimum process seconds against nodes by least
squares (``slope_us_per_node``) and on log-log axes (``loglog_exponent``).
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import tempfile

import ladder

OUT = "BENCH_replay.json"
RUNGS = ((16, 16), (64, 32), (128, 64), (256, 64))  # (npus, microbatches)
ROUND_S = 0.5  # process seconds of replay per rung and round, at least
LINE = ("{nodes:>7} nodes  {nodes_per_s:>7} nodes/s  peak {peak_bytes_per_node:>5} B/node  "
        "simulate peak {command_peak_bytes_per_node:>5} B/node  full gc {full_gc}")


def _command_peak_bytes(package: str, traces, topology: str) -> int:
    """The ``tracemalloc`` peak of one in-process ``ettrace simulate --timeline --chrome`` over ``traces``' files."""
    cli, codec = (importlib.import_module(f"{package}.{module}") for module in ("cli", "codec"))
    with tempfile.TemporaryDirectory() as tmp:
        codec.write_workload(traces, f"{tmp}/w", fmt="binary")
        argv = ["simulate", "--trace-dir", f"{tmp}/w", "--topology", topology, "--bw", "62e9", "--lat", "1e-6",
                "--timeline", f"{tmp}/t.csv", "--chrome", f"{tmp}/c.json", "--output", f"{tmp}/s.csv"]
        return ladder.peak(lambda: ladder.command(cli, argv, package))


def one_rung(packages: "dict[str, str]", rung: int, *_) -> "dict[str, dict]":
    """One round's sample of rung ``rung`` for each side (label -> package), replayed in turn."""
    npus, microbatches = RUNGS[rung]
    traces, replays = {}, {}
    for label, name in packages.items():
        costmodel, simulator, workloads = (
            importlib.import_module(f"{name}.{module}") for module in ("costmodel", "simulator", "workloads")
        )
        spec = workloads.WorkloadSpec(npus=npus, parallelism=workloads.Parallelism.PIPELINE, microbatches=microbatches)
        d1, d2 = costmodel.near_square_dims(npus)
        topology = f"torus2d:{d1}x{d2}"  # the same on every side
        cfg = simulator.SimConfig(topology=costmodel.parse_topology(topology, 62e9, 1e-6))
        traces[label] = workloads.generate_workload(spec)
        replays[label] = functools.partial(simulator.run_simulation, traces[label], cfg)
    done: "dict[str, list]" = {label: [] for label in packages}
    while min(sum(cpu for cpu, _, _ in runs) for runs in done.values()) < ROUND_S:
        for label, replay in replays.items():
            done[label].append(ladder.timed(replay))
    return {
        label: {
            "nodes": sum(len(t.nodes) for t in traces[label]),
            "replays": len(runs),
            "process_s": statistics.fmean(cpu for cpu, _, _ in runs),
            "wall_s": statistics.fmean(wall for _, wall, _ in runs),
            "full_gc": sum(full for _, _, full in runs),
            "peak_bytes": ladder.peak(replays[label]),
            "command_peak_bytes": _command_peak_bytes(packages[label], traces[label], topology),
        }
        for label, runs in done.items()
    }


def columns(rung: int, samples: "list[dict]", min_s: float) -> dict:
    npus, microbatches = RUNGS[rung]
    nodes, peak = samples[0]["nodes"], max(s["peak_bytes"] for s in samples)
    command_peak = max(s["command_peak_bytes"] for s in samples)
    return {
        "rung": f"pipeline-{npus}x{microbatches}",
        "npus": npus,
        "microbatches": microbatches,
        "nodes": nodes,
        "replays": [s["replays"] for s in samples],
        "nodes_per_s": round(nodes / min_s),
        "full_gc": [s["full_gc"] for s in samples],
        "peak_bytes": peak,
        "peak_bytes_per_node": round(peak / nodes),
        "command_peak_bytes": command_peak,
        "command_peak_bytes_per_node": round(command_peak / nodes),
    }


def fits(rows: "list[dict]") -> dict:
    slope, exponent = ladder.fit([r["nodes"] for r in rows], [r["min_process_s"] for r in rows])
    return {"slope_us_per_node": round(slope * 1e6, 3), "loglog_exponent": round(exponent, 3)}


if __name__ == "__main__":
    sys.exit(ladder.main(sys.modules[__name__]))
