"""Synthesis ladder: ``ettrace synthesize`` at growing op counts, run in-process.

Usage, from the root of a checkout:

    python3 bench/synth_ladder.py                  # writes BENCH_synthesize.json
    python3 bench/synth_ladder.py --repeats 9 --out /tmp/synth.json
    python3 bench/synth_ladder.py --before-src ../other/src   # also time another checkout

Set-up generates one workload per preset at 8 NPUs and fits one models
document on them with this checkout's ``ettrace fit --seed 0``. Each rung
then runs ``ettrace synthesize --models <it> --npus 8 --num-ops N --seed 0``
through ``cli.main`` into a fresh directory, for N = 1,000, 4,000 and 10,000
ops (8,000 to 80,000 nodes): the command as a user runs it, so model
loading, sampling, trace building, validation, encoding and the file writes
are all inside. One round takes every rung once, in ladder order, each rung
in a fresh interpreter, so the rungs interleave across the ``--repeats``
rounds; within a round a rung runs until its runs add up to ``ROUND_S``
process seconds, and the round's sample is their mean. With ``--before-src``,
that interpreter also imports another checkout's ``src/`` under another
package name, as "before", and runs the two sides in turn, one run each,
until both have their ``ROUND_S``; the rungs and rounds alternate which side
goes first, and each rung checks that both sides wrote the same bytes. A run
starts after ``gc.collect()`` and is timed by ``time.process_time`` (CPU
seconds of the process, which other load on the machine disturbs less) and
by ``time.perf_counter``.

Per side ("after" is this checkout) and rung the JSON holds each round's
process and wall seconds per run, their minimum and interquartile range
(IQR), and ops/s and nodes/s at the minimum process time. With
``--before-src`` it also holds, per rung, the ratio after/before of process
seconds in each round, whose two sides took turns in one interpreter, the
median and IQR of those ratios, and whether the two sides' files were
byte-identical. Load on a shared machine moves both sides of a round alike,
so a change is resolved when the median ratio is further from 1 than its IQR.
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
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from replay_ladder import _load, _spread  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNGS = (1000, 4000, 10000)  # --num-ops
NPUS = 8
PRESETS = ("dlrm", "mlp-dp", "mlp-hybrid", "mlp-mp", "transformer")
ROUND_S = 0.5  # process seconds of synthesis per rung and round, at least


def fit_models(src: Path, directory: Path) -> Path:
    """``directory/models.json``, fitted by the checkout in ``src`` on one workload per preset."""
    cli = importlib.import_module(f"{_load(str(src), 'ettrace_fit').__name__}.cli")
    corpus = []
    with contextlib.redirect_stderr(io.StringIO()):
        for preset in PRESETS:
            corpus.append(str(directory / preset))
            if cli.main(["generate", "--preset", preset, "--npus", str(NPUS), "--out", corpus[-1]]) != 0:
                raise RuntimeError(f"generate --preset {preset} failed")
        models = directory / "models.json"
        if cli.main(["fit", *corpus, "--seed", "0", "--output", str(models)]) != 0:
            raise RuntimeError("fit failed")
    return models


def _digest(directory: Path) -> str:
    files = sorted(p for p in directory.iterdir() if p.is_file())
    return hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in files)).hexdigest()


def one_rung(sides: "dict[str, str]", rung: int, models: str) -> dict:
    """One round's sample of rung ``rung`` for each side (label -> ``src``), run in turn."""
    ops = RUNGS[rung]
    clis = {label: importlib.import_module(f"{_load(src, f'ettrace_{label}').__name__}.cli")
            for label, src in sides.items()}
    runs: dict[str, list] = {label: [] for label in sides}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        while min(sum(cpu for cpu, _ in done) for done in runs.values()) < ROUND_S:
            for label, cli in clis.items():
                out = Path(tmp) / label
                shutil.rmtree(out, ignore_errors=True)
                argv = ["synthesize", "--models", models, "--npus", str(NPUS), "--num-ops", str(ops),
                        "--seed", "0", "--out", str(out)]
                gc.collect()
                cpu, wall = time.process_time(), time.perf_counter()
                with contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                runs[label].append((time.process_time() - cpu, time.perf_counter() - wall))
                if code != 0:
                    raise RuntimeError(f"{label}: synthesize --num-ops {ops} exited with {code}")
                digests[label] = _digest(out)
    return {
        "same_bytes": len(set(digests.values())) == 1,
        **{
            label: {
                "runs": len(done),
                "process_s": statistics.fmean(cpu for cpu, _ in done),
                "wall_s": statistics.fmean(wall for _, wall in done),
            }
            for label, done in runs.items()
        },
    }


def _rung_in_child(sides: "dict[str, Path]", rung: int, models: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--rung", str(rung), "--models", str(models)]
    argv += [f"--side={label}={src}" for label, src in sides.items()]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def summarize(rounds: "list[list[dict]]") -> "list[dict]":
    """Per rung, one side's samples over ``rounds``: their minimum, spread and rate."""
    rungs = []
    for ops, samples in zip(RUNGS, zip(*rounds)):
        cpu = [s["process_s"] for s in samples]
        wall = [s["wall_s"] for s in samples]
        min_cpu, iqr_cpu = _spread(cpu)
        min_wall, iqr_wall = _spread(wall)
        rungs.append({
            "rung": f"synthesize-{ops}",
            "ops": ops,
            "nodes": ops * NPUS,
            "runs": [s["runs"] for s in samples],
            "process_s": [round(s, 4) for s in cpu],
            "wall_s": [round(s, 4) for s in wall],
            "min_process_s": round(min_cpu, 4),
            "iqr_process_s": round(iqr_cpu, 4),
            "iqr_share": round(iqr_cpu / statistics.median(cpu), 3),
            "min_wall_s": round(min_wall, 4),
            "iqr_wall_s": round(iqr_wall, 4),
            "ops_per_s": round(ops / min_cpu),
            "nodes_per_s": round(ops * NPUS / min_cpu),
        })
    return rungs


def paired(samples: "list[list[dict]]") -> "list[dict]":
    """Per rung, the after/before ratio of process seconds in each round, its median and IQR,
    and whether every round's two sides wrote the same bytes."""
    out = []
    for ops, rung in zip(RUNGS, zip(*samples)):
        ratios = [s["after"]["process_s"] / s["before"]["process_s"] for s in rung]
        _, iqr = _spread(ratios)
        out.append({
            "rung": f"synthesize-{ops}",
            "ratios": [round(r, 3) for r in ratios],
            "ratio_median": round(statistics.median(ratios), 3),
            "ratio_iqr": round(iqr, 3),
            "same_bytes": all(s["same_bytes"] for s in rung),
        })
    return out


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="rounds per side (default 5)")
    parser.add_argument("--out", default=str(ROOT / "BENCH_synthesize.json"), help="output JSON path")
    parser.add_argument("--before-src", type=Path, help="another checkout's src/, timed alongside as 'before'")
    # One rung of a round in this process, as JSON on stdout, for each --side=label=src in turn.
    parser.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--models", help=argparse.SUPPRESS)
    parser.add_argument("--side", action="append", default=[], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(one_rung(dict(side.split("=", 1) for side in args.side), args.rung, args.models)))
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
        models = fit_models(sides["after"], Path(tmp))
        for i in range(args.repeats):
            samples.append([])
            for rung in range(len(RUNGS)):
                order = list(sides) if (i + rung) % 2 == 0 else list(reversed(sides))
                samples[-1].append(_rung_in_child({label: sides[label] for label in order}, rung, models))
            print(f"round {i + 1}/{args.repeats} done", file=sys.stderr)
    results = {label: {"rungs": summarize([[s[label] for s in rnd] for rnd in samples])} for label in sides}
    for label, result in results.items():
        for r in result["rungs"]:
            print(f"{label:>6} {r['rung']:>17}  {r['nodes']:>6} nodes  min {r['min_process_s']:7.3f} s  "
                  f"IQR {r['iqr_share']:6.1%}  {r['ops_per_s']:>6} ops/s", file=sys.stderr)
    if args.before_src:
        results["paired"] = paired(samples)
        for r in results["paired"]:
            print(f"after/before {r['rung']:>17}  median {r['ratio_median']:.3f}  IQR {r['ratio_iqr']:.3f}  "
                  f"same bytes {r['same_bytes']}", file=sys.stderr)
    doc = {
        "benchmark": "synth_ladder",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "repeats": args.repeats,
        "npus": NPUS,
        **results,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({label: [r["min_process_s"] for r in results[label]["rungs"]] for label in sides}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
