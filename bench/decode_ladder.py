"""Decode ladder: trace decoding of growing workloads through ``codec.decode_trace``.

Usage, from the root of a checkout (``bench/ladder.py`` gives the method):

    python3 bench/decode_ladder.py                 # writes BENCH_decode.json
    python3 bench/decode_ladder.py --repeats 9 --out /tmp/decode.json
    python3 bench/decode_ladder.py --before-src ../other/src   # also time another checkout

Each rung generates a workload, encodes every trace, and then decodes all of
the workload's bytes with ``decode_trace``, as ``read_workload`` does once it
has read the files. The rungs are the pipeline workloads of
``replay_ladder.py`` as binary traces (the format ``perfbench``'s
pipeline-128x32 simulates) and the ``transformer`` preset at 64 and 512 NPUs
as JSON (the format of its transformer-512). Within a round the two sides
decode the same bytes, this checkout's, in turn, one pass each, until each has
its ``ROUND_S`` process seconds, and the round's sample is their mean. One
more pass runs under ``tracemalloc`` for the peak of the memory that decoding
allocates, the decoded traces included.

Its columns per rung are the trace format, the node and byte counts, the
passes of each round, the minimum process time in microseconds per node, and
the ``tracemalloc`` peak in bytes and bytes per node, the largest over the
rounds.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys

import ladder
from replay_ladder import RUNGS as PIPELINE_RUNGS

OUT = "BENCH_decode.json"
# (name, workload, trace format): the pipeline rungs as binary, transformer as JSON
RUNGS = tuple(
    (f"pipeline-{npus}x{microbatches}", ("pipeline", npus, microbatches), "binary")
    for npus, microbatches in PIPELINE_RUNGS
) + tuple((f"transformer-{npus}", ("transformer", npus, 0), "json") for npus in (64, 512))
ROUND_S = 0.5  # process seconds of decoding per rung and round, at least
LINE = "{nodes:>6} nodes  {us_per_node:7.2f} us/node  peak {peak_bytes_per_node:>5} B/node"


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


def _decode_each(codec, blobs: "list[bytes]") -> None:
    for data in blobs:
        codec.decode_trace(data)


def one_rung(packages: "dict[str, str]", rung: int, *_) -> "dict[str, dict]":
    """One round's sample of rung ``rung`` for each side (label -> package), decoded in turn."""
    codecs = {label: importlib.import_module(f"{name}.codec") for label, name in packages.items()}
    blobs, nodes = _workload_bytes(packages["after"], rung)
    done: "dict[str, list]" = {label: [] for label in packages}
    while min(sum(cpu for cpu, _, _ in runs) for runs in done.values()) < ROUND_S:
        for label, codec in codecs.items():
            done[label].append(ladder.timed(functools.partial(_decode_each, codec, blobs)))
    return {
        label: {
            "nodes": nodes,
            "bytes": sum(map(len, blobs)),
            "passes": len(runs),
            "process_s": statistics.fmean(cpu for cpu, _, _ in runs),
            "wall_s": statistics.fmean(wall for _, wall, _ in runs),
            # a pass that keeps every decoded trace
            "peak_bytes": ladder.peak(lambda: [codecs[label].decode_trace(data) for data in blobs]),
        }
        for label, runs in done.items()
    }


def columns(rung: int, samples: "list[dict]", min_s: float) -> dict:
    name, _, fmt = RUNGS[rung]
    nodes, peak = samples[0]["nodes"], max(s["peak_bytes"] for s in samples)
    return {
        "rung": name,
        "format": fmt,
        "nodes": nodes,
        "bytes": samples[0]["bytes"],
        "passes": [s["passes"] for s in samples],
        "us_per_node": round(min_s / nodes * 1e6, 3),
        "peak_bytes": peak,
        "peak_bytes_per_node": round(peak / nodes),
    }


if __name__ == "__main__":
    sys.exit(ladder.main(sys.modules[__name__]))
