"""Fit ladder: ``ettrace fit`` over growing corpora, run in-process.

Usage, from the root of a checkout:

    python3 bench/fit_ladder.py                    # writes BENCH_fit.json
    python3 bench/fit_ladder.py --repeats 5 --out /tmp/fit.json
    python3 bench/fit_ladder.py --before-src ../other/src   # also time another checkout

Set-up generates ten workloads with this checkout's ``ettrace generate``: the
presets dlrm, mlp-dp, mlp-hybrid, mlp-mp and transformer at 8 and 64 NPUs, as
JSON traces. A rung of W workloads passes the first W directories of those ten,
repeated in that order, to ``ettrace fit --seed 0 --output <file>`` through
``cli.main``: the command as a user runs it, so decoding, validation, the
merge replays, the fit and the write of the models JSON are all inside. The
rungs are 24, 240 and 960 workloads. One round takes every rung once, in
ladder order, each rung in a fresh interpreter; a rung runs its command once
per side, once every module the command imports, numpy included, is loaded.
With ``--before-src``, that interpreter also imports another checkout's
``src/`` under another package name, as "before", and the two sides run in
turn; the rungs and rounds alternate which side goes first, and
each run checks that both sides wrote the same models bytes. A run starts
after ``gc.collect()`` and is timed by ``time.process_time`` (CPU seconds of
the process, which other load on the machine disturbs less) and by
``time.perf_counter``. In the first round only, each side then runs the rung
once more under ``tracemalloc``, for the peak of the memory the command
allocates; ``cli.main`` pauses the cyclic collector while a command runs, so
that peak is the same in every round.

Per side ("after" is this checkout) and rung the JSON holds the workload and
collective-op counts (the ops are the sums of the models' sequence lengths),
each round's process and wall seconds, their minimum and interquartile range
(IQR), milliseconds per workload at the minimum, and the ``tracemalloc`` peak
in bytes. Over the rungs it fits minimum process seconds against workloads by
least squares (``slope_ms_per_workload``) and on log-log axes
(``loglog_exponent``, 1.0 for linear time), and gives the peak's growth per
added workload and per added collective op from the first rung to the last.
With ``--before-src`` it also holds, per rung, the ratio after/before of
process seconds in each round, the median and IQR of those ratios, and
whether the two sides wrote the same models bytes in every round. Load on a
shared machine moves both sides of a round alike, so a change is resolved
when the median ratio is further from 1 than its IQR.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from replay_ladder import _load, _spread, fit, paired  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (24, 240, 960)  # workloads
WORKLOADS = tuple((preset, npus) for preset in ("dlrm", "mlp-dp", "mlp-hybrid", "mlp-mp", "transformer")
                  for npus in (8, 64))


def generate_corpus(src: Path, directory: Path) -> None:
    """One directory per ``WORKLOADS`` entry under ``directory``, written by the checkout in ``src``."""
    cli = importlib.import_module(f"{_load(str(src), 'ettrace_generate').__name__}.cli")
    with contextlib.redirect_stderr(io.StringIO()):
        for preset, npus in WORKLOADS:
            out = str(directory / f"{preset}-{npus}")
            if cli.main(["generate", "--preset", preset, "--npus", str(npus), "--out", out]) != 0:
                raise RuntimeError(f"generate --preset {preset} --npus {npus} failed")


def _fit(cli, argv: "list[str]", label: str) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{label}: fit exited with {code}: {err.getvalue()}")


def one_rung(sides: "dict[str, str]", rung: int, corpus: str, peak: bool) -> dict:
    """One round's sample of rung ``rung`` for each side (label -> ``src``), run in turn."""
    workloads = RUNGS[rung]
    dirs = [str(Path(corpus) / f"{preset}-{npus}") for preset, npus in WORKLOADS]
    dirs = [dirs[i % len(dirs)] for i in range(workloads)]
    clis = {}
    for label, src in sides.items():
        name = _load(src, f"ettrace_{label}").__name__
        importlib.import_module(f"{name}.synth")  # numpy too: neither side's timed run imports it
        clis[label] = importlib.import_module(f"{name}.cli")
    out: dict = {}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cli in clis.items():
            models = Path(tmp) / f"{label}.json"
            argv = ["fit", *dirs, "--seed", "0", "--output", str(models)]
            gc.collect()
            cpu, wall = time.process_time(), time.perf_counter()
            _fit(cli, argv, label)
            out[label] = {"process_s": time.process_time() - cpu, "wall_s": time.perf_counter() - wall}
            text = models.read_bytes()
            digests[label] = hashlib.sha256(text).hexdigest()
            clusters = json.loads(text)["type_model"]["clusters"]
            out[label]["ops"] = sum(sum(c["lengths"]) for c in clusters)
        if peak:
            for label, cli in clis.items():
                gc.collect()
                tracemalloc.start()
                try:
                    _fit(cli, ["fit", *dirs, "--seed", "0", "--output", str(Path(tmp) / "peak.json")], label)
                    out[label]["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
    return {"same_bytes": len(set(digests.values())) == 1, **out}


def _rung_in_child(sides: "dict[str, Path]", rung: int, corpus: Path, peak: bool) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--rung", str(rung), "--corpus", str(corpus)]
    argv += [f"--side={label}={src}" for label, src in sides.items()] + ["--peak"] * peak
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def summarize(rounds: "list[list[dict]]") -> dict:
    """Per rung, one side's samples over ``rounds``: their minimum and spread; and the fits over the rungs."""
    rungs = []
    for workloads, samples in zip(RUNGS, zip(*rounds)):
        cpu = [s["process_s"] for s in samples]
        wall = [s["wall_s"] for s in samples]
        min_cpu, iqr_cpu = _spread(cpu)
        min_wall, iqr_wall = _spread(wall)
        rungs.append({
            "rung": f"fit-{workloads}",
            "workloads": workloads,
            "ops": samples[0]["ops"],
            "process_s": [round(s, 3) for s in cpu],
            "wall_s": [round(s, 3) for s in wall],
            "min_process_s": round(min_cpu, 3),
            "iqr_process_s": round(iqr_cpu, 3),
            "iqr_share": round(iqr_cpu / statistics.median(cpu), 3),
            "min_wall_s": round(min_wall, 3),
            "iqr_wall_s": round(iqr_wall, 3),
            "ms_per_workload": round(min_cpu / workloads * 1e3, 2),
            "peak_bytes": samples[0]["peak_bytes"],  # taken in the first round only
        })
    line = fit([{"nodes": r["workloads"], "min_process_s": r["min_process_s"]} for r in rungs])
    first, last = rungs[0], rungs[-1]
    growth = last["peak_bytes"] - first["peak_bytes"]
    return {
        "rungs": rungs,
        "fit": {
            "slope_ms_per_workload": round(line["slope_us_per_node"] / 1e3, 3),
            "loglog_exponent": line["loglog_exponent"],
            "peak_growth_bytes_per_workload": round(growth / (last["workloads"] - first["workloads"])),
            "peak_growth_bytes_per_op": round(growth / (last["ops"] - first["ops"]), 2),
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per side (default 5)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_fit.json"), help="output JSON path")
    parser.add_argument("--before-src", type=Path, help="another checkout's src/, timed alongside as 'before'")
    # One rung of a round in this process, as JSON on stdout, for each --side=label=src in turn.
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--corpus", help=argparse.SUPPRESS)
    parser.add_argument("--peak", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--side", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung is not None:
        sides = dict(side.split("=", 1) for side in args.side)
        print(json.dumps(one_rung(sides, args.rung, args.corpus, args.peak)))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sides = {"after": ROOT / "src"}
    if args.before_src:
        if not (args.before_src / "ettrace" / "__init__.py").is_file():
            parser.error(f"--before-src {args.before_src} holds no ettrace package")
        sides = {"before": args.before_src.resolve(), **sides}
    samples: "list[list[dict]]" = []
    with tempfile.TemporaryDirectory() as tmp:
        generate_corpus(sides["after"], Path(tmp))
        for i in range(args.repeats):
            samples.append([])
            for rung in range(len(RUNGS)):
                order = list(sides) if (i + rung) % 2 == 0 else list(reversed(sides))
                samples[-1].append(_rung_in_child({label: sides[label] for label in order}, rung, Path(tmp), i == 0))
            print(f"round {i + 1}/{args.repeats} done", file=sys.stderr)
    results = {label: summarize([[s[label] for s in rnd] for rnd in samples]) for label in sides}
    for label, result in results.items():
        for r in result["rungs"]:
            print(f"{label:>6} {r['rung']:>8}  {r['ops']:>6} ops  min {r['min_process_s']:7.2f} s  "
                  f"IQR {r['iqr_share']:6.1%}  {r['ms_per_workload']:6.1f} ms/workload  "
                  f"peak {r['peak_bytes'] / 1e6:6.2f} MB", file=sys.stderr)
    if args.before_src:
        results["paired"] = paired([f"fit-{w}" for w in RUNGS], [[s["before"] for s in rnd] for rnd in samples],
                                   [[s["after"] for s in rnd] for rnd in samples])
        for r, rung in zip(results["paired"], zip(*samples)):
            r["same_bytes"] = all(s["same_bytes"] for s in rung)
            print(f"after/before {r['rung']:>8}  median {r['ratio_median']:.3f}  IQR {r['ratio_iqr']:.3f}  "
                  f"same bytes {r['same_bytes']}", file=sys.stderr)
    doc = {
        "benchmark": "fit_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "workloads": [f"{preset}-{npus}" for preset, npus in WORKLOADS],
        **results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({label: results[label]["fit"] for label in sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
