"""Decode ladder: trace decoding of growing workloads through ``codec.decode_trace``.

Usage, from the root of a checkout:

    python3 bench/decode_ladder.py                 # writes BENCH_decode.json
    python3 bench/decode_ladder.py --repeats 9 --out /tmp/decode.json
    python3 bench/decode_ladder.py --before-src ../other/src   # also time another checkout

Each rung generates a workload, encodes every trace, and then decodes all of
the workload's bytes with ``decode_trace``, as ``read_workload`` does once it
has read the files. The rungs are the pipeline workloads of
``replay_ladder.py`` as binary traces (the format ``perfbench``'s
pipeline-128x32 simulates) and the ``transformer`` preset at 64 and 512 NPUs
as JSON (the format of its transformer-512). One round takes every rung
once, each rung in a fresh interpreter; within a round a rung decodes its
workload until the passes add up to ``ROUND_S`` process seconds, and the
round's sample is their mean. With ``--before-src``, that interpreter also
imports another checkout's ``src/`` as "before", and the two sides decode
the same bytes in turn, one pass each, until both have their ``ROUND_S``;
the rungs and rounds alternate which side goes first. Each pass starts after
``gc.collect()`` and is timed by ``time.process_time``. One more pass runs
under ``tracemalloc`` for the peak of the memory that decoding allocates,
the decoded traces included.

Per side ("after" is this checkout) and rung the JSON holds the node and
byte counts, each round's process seconds per pass, their minimum and
interquartile range (IQR), the minimum in microseconds per node, and the
``tracemalloc`` peak in bytes and bytes per node. With ``--before-src`` it
also holds, per rung, the after/before ratio of process seconds in each
round and the median and IQR of those ratios, through ``replay_ladder.py``'s
``paired``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from replay_ladder import RUNGS as PIPELINE_RUNGS, _load, _spread, paired

ROOT = Path(__file__).resolve().parent.parent
# (name, workload, trace format): the pipeline rungs as binary, transformer as JSON
RUNGS = tuple(
    (f"pipeline-{npus}x{microbatches}", ("pipeline", npus, microbatches), "binary")
    for npus, microbatches in PIPELINE_RUNGS
) + tuple((f"transformer-{npus}", ("transformer", npus, 0), "json") for npus in (64, 512))
ROUND_S = 0.5  # process seconds of decoding per rung and round, at least


def _workload_bytes(package: str, rung: int) -> "tuple[list[bytes], int]":
    """The encoded traces of rung ``rung``, and their node count."""
    _, (kind, npus, microbatches), fmt = RUNGS[rung]
    codec, workloads = (importlib.import_module(f"{package}.{module}") for module in ("codec", "workloads"))
    if kind == "pipeline":
        spec = workloads.WorkloadSpec(npus=npus, parallelism=workloads.Parallelism.PIPELINE, microbatches=microbatches)
    else:
        spec = workloads.preset_spec(kind, npus)
    traces = workloads.generate_workload(spec)
    return [codec.encode_trace(t, fmt) for t in traces], sum(len(t.nodes) for t in traces)


def _timed_pass(codec, blobs: "list[bytes]") -> float:
    gc.collect()
    cpu = time.process_time()
    for data in blobs:
        codec.decode_trace(data)
    return time.process_time() - cpu


def _peak_bytes(codec, blobs: "list[bytes]") -> int:
    """The ``tracemalloc`` peak of one pass that keeps every decoded trace."""
    gc.collect()
    tracemalloc.start()
    try:
        traces = [codec.decode_trace(data) for data in blobs]  # noqa: F841 - held to the peak
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_rung(sides: "dict[str, str]", rung: int) -> "dict[str, dict]":
    """One round's sample of rung ``rung`` for each side (label -> ``src``), decoded in turn."""
    codecs = {label: importlib.import_module(f"{_load(src, f'ettrace_{label}').__name__}.codec")
              for label, src in sides.items()}
    blobs, nodes = _workload_bytes("ettrace_after", rung)
    passes: dict[str, list] = {label: [] for label in sides}
    while min(sum(done) for done in passes.values()) < ROUND_S:
        for label, codec in codecs.items():
            passes[label].append(_timed_pass(codec, blobs))
    return {
        label: {
            "nodes": nodes,
            "bytes": sum(map(len, blobs)),
            "passes": len(done),
            "process_s": statistics.fmean(done),
            "peak_bytes": _peak_bytes(codecs[label], blobs),
        }
        for label, done in passes.items()
    }


def _rung_in_child(sides: "dict[str, Path]", rung: int) -> "dict[str, dict]":
    argv = [sys.executable, str(Path(__file__).resolve()), "--rung", str(rung)]
    argv += [f"--side={label}={src}" for label, src in sides.items()]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def summarize(rounds: "list[list[dict]]") -> "list[dict]":
    """Per-rung minimum and spread over ``rounds``."""
    out = []
    for (name, _, fmt), samples in zip(RUNGS, zip(*rounds)):
        cpu = [s["process_s"] for s in samples]
        min_cpu, iqr_cpu = _spread(cpu)
        nodes, peak = samples[0]["nodes"], max(s["peak_bytes"] for s in samples)
        out.append({
            "rung": name,
            "format": fmt,
            "nodes": nodes,
            "bytes": samples[0]["bytes"],
            "passes": [s["passes"] for s in samples],
            "process_s": [round(s, 5) for s in cpu],
            "min_process_s": round(min_cpu, 5),
            "iqr_process_s": round(iqr_cpu, 5),
            "us_per_node": round(min_cpu / nodes * 1e6, 3),
            "peak_bytes": peak,
            "peak_bytes_per_node": round(peak / nodes),
        })
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per side (default 5)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_decode.json"), help="output JSON path")
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
    results: dict[str, object] = {label: summarize(rounds[label]) for label in sides}
    for label in sides:
        for r in results[label]:
            print(f"{label:>6} {r['rung']:>18}  {r['nodes']:>6} nodes  {r['us_per_node']:7.2f} us/node  "
                  f"IQR {r['iqr_process_s']:.4f} s  peak {r['peak_bytes_per_node']:>5} B/node", file=sys.stderr)
    if args.before_src:
        results["paired"] = paired([name for name, _, _ in RUNGS], rounds["before"], rounds["after"])
        for r in results["paired"]:
            print(f"after/before {r['rung']:>18}  median {r['ratio_median']:.3f}  IQR {r['ratio_iqr']:.3f}",
                  file=sys.stderr)
    doc = {
        "benchmark": "decode_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        **results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
