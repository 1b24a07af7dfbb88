"""One harness for the bench ladders, and one command that rewrites every ``BENCH_*.json``.

Usage, from the root of a checkout:

    python3 bench/ladder.py                        # every ladder, then cold_start.py, with their defaults
    python3 bench/ladder.py --before-src ../other/src   # the same, each also timing another checkout

A ladder is a script in ``bench/`` that ends with
``sys.exit(ladder.main(sys.modules[__name__]))``. Its module gives ``OUT``, the
default output file; ``RUNGS``; ``one_rung(packages, rung, round_index, work)``,
one round's sample of one rung for each side (label -> package name, in the
order the sides take turns), with ``process_s`` and ``wall_s`` per side and,
when it compares the sides' output, ``same_bytes``; ``columns(rung, samples,
min_s)``, its own per-rung columns over one side's samples, ``"rung"`` (the
rung's name) first; and ``LINE``, the format of its columns on stderr. It may
give ``setup(package, work)``, run once in this process with this checkout
before the first round and writing into ``work``, a directory each rung can
read; ``fits(rows)``, fits over its rungs; and ``HEADER``, more fields for the
document's head. Every ladder takes the same options:

    python3 bench/<ladder>.py [--repeats N] [--out PATH] [--before-src DIR]

The method, the same in every ladder. One round takes every rung once, in
ladder order, so the rungs interleave across the ``--repeats`` rounds (5 by
default). Each rung of each round runs in a fresh interpreter, started through
``subprocess``. That interpreter imports this checkout's ``src/`` as "after"
and, with ``--before-src``, another checkout's ``src/`` under another package
name, as "before"; the two sides take turns there, and rung ``k`` of round
``i`` puts "before" first when ``i + k`` is even. Every timed run starts after
``gc.collect()`` and is timed by ``time.process_time`` (CPU seconds of the
process, which other load on the machine disturbs less) and by
``time.perf_counter`` (wall seconds). A ``tracemalloc`` peak is taken on a run
of its own, after ``gc.collect()``, never on a timed one.

Per side and rung the JSON holds the ladder's columns, then each round's
process and wall seconds, their minimum and interquartile range (IQR), and
``iqr_share``, the IQR of process seconds over their median. With
``--before-src`` it also holds, per rung, the paired statistic: the ratio
after/before of process seconds in each round, whose two sides took turns in
one interpreter, the median and IQR of those ratios, and, where the ladder
compares the two sides' output, ``same_bytes``, true when they were
byte-identical in every round. Load on a shared machine moves both sides of a
round alike, so a change is resolved when the median ratio is further from 1
than its IQR; the spread of either side alone (``iqr_share``) is often wider
than the change.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
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
SCRIPTS = ("decode_ladder.py", "fit_ladder.py", "replay_ladder.py", "synth_ladder.py", "cold_start.py")


def count(text: str) -> int:
    """A ``--repeats`` or ``--runs`` value: an int, at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def parser(doc: str, out: str, option: str = "--repeats", default: int = 5,
           what: str = "rounds per side") -> argparse.ArgumentParser:
    """The options of every bench script: the run count ``option``, ``--out`` and ``--before-src``."""
    p = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    p.add_argument(option, type=count, default=default, help=f"{what} (default {default})")
    p.add_argument("--out", default=str(ROOT / out), help="output JSON path")
    p.add_argument("--before-src", type=Path, help="another checkout's src/, timed alongside as 'before'")
    return p


def checkouts(p: argparse.ArgumentParser, before_src: "Path | None") -> "dict[str, Path]":
    """label -> ``src/``: "after" is this checkout's, and "before", first, is ``before_src`` when given."""
    sides = {"after": ROOT / "src"}
    if before_src:
        if not (before_src / "ettrace" / "__init__.py").is_file():
            p.error(f"--before-src {before_src} holds no ettrace package")
        sides = {"before": before_src.resolve(), **sides}
    return sides


def order(sides: dict, k: int) -> list:
    """The labels of ``sides`` in turn order for the ``k``-th pairing: as given when ``k`` is even."""
    return list(sides) if k % 2 == 0 else list(reversed(sides))


def header(benchmark: str, **fields) -> dict:
    """The head of a bench document: what ran, and on which interpreter and machine."""
    return {
        "benchmark": benchmark,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        **fields,
    }


def timed(run) -> "tuple[float, float, int]":
    """Process and wall seconds of ``run()``, started after ``gc.collect()``, and the full collections inside it."""
    gc.collect()
    full = gc.get_stats()[2]["collections"]
    cpu, wall = time.process_time(), time.perf_counter()
    run()
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    return cpu, wall, gc.get_stats()[2]["collections"] - full


def peak(run) -> int:
    """The ``tracemalloc`` peak of ``run()``, started after ``gc.collect()``."""
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def command(cli, argv: "list[str]", label: str) -> None:
    """``cli.main(argv)``, an ``ettrace`` command run in-process with its stderr kept; RuntimeError unless it exits 0."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{label}: ettrace {argv[0]} exited with {code}: {err.getvalue()}")


def _load(src: str, name: str):
    """The ``ettrace`` package in ``src``, imported as ``name``; its modules import each other relatively."""
    init = Path(src) / "ettrace" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _spread(values: "list[float]") -> "tuple[float, float]":
    """(minimum, interquartile range) of ``values``."""
    if len(values) < 2:
        return min(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return min(values), q3 - q1


def fit(xs: "list[float]", seconds: "list[float]") -> "tuple[float, float]":
    """Least-squares slope of ``seconds`` on ``xs``, on linear and on log-log axes (1.0 for linear time)."""

    def slope(us: "list[float]", vs: "list[float]") -> float:
        mu, mv = statistics.fmean(us), statistics.fmean(vs)
        return sum((u - mu) * (v - mv) for u, v in zip(us, vs)) / sum((u - mu) ** 2 for u in us)

    return slope(xs, seconds), slope([math.log(x) for x in xs], [math.log(s) for s in seconds])


def paired(names: "list[str]", samples: "list[list[dict]]") -> "list[dict]":
    """Per rung, named by ``names``, the after/before ratio of process seconds in each round of ``samples``,
    their median and IQR, and whether every round's two sides wrote the same bytes, where the samples say."""
    out = []
    for name, rounds in zip(names, zip(*samples)):
        ratios = [s["after"]["process_s"] / s["before"]["process_s"] for s in rounds]
        row = {
            "rung": name,
            "ratios": [round(r, 3) for r in ratios],
            "ratio_median": round(statistics.median(ratios), 3),
            "ratio_iqr": round(_spread(ratios)[1], 3),
        }
        if "same_bytes" in rounds[0]:
            row["same_bytes"] = all(s["same_bytes"] for s in rounds)
        out.append(row)
    return out


def summarize(ladder, samples: "list[list[dict]]") -> dict:
    """One side's ``samples`` (per round, per rung): each rung's columns and timing spread, and the fits."""
    rows = []
    for rung, rounds in enumerate(zip(*samples)):
        cpu = [s["process_s"] for s in rounds]
        wall = [s["wall_s"] for s in rounds]
        min_cpu, iqr_cpu = _spread(cpu)
        min_wall, iqr_wall = _spread(wall)
        rows.append({
            **ladder.columns(rung, rounds, min_cpu),
            "process_s": [round(s, 5) for s in cpu],
            "wall_s": [round(s, 5) for s in wall],
            "min_process_s": round(min_cpu, 5),
            "iqr_process_s": round(iqr_cpu, 5),
            "iqr_share": round(iqr_cpu / statistics.median(cpu), 3),
            "min_wall_s": round(min_wall, 5),
            "iqr_wall_s": round(iqr_wall, 5),
        })
    return {"rungs": rows, **({"fit": ladder.fits(rows)} if hasattr(ladder, "fits") else {})}


def _rung_in_child(ladder, sides: "dict[str, Path]", rung: int, round_index: int, work: str) -> dict:
    argv = [sys.executable, str(Path(ladder.__file__).resolve()), "--rung", str(rung), "--round", str(round_index),
            "--work", work, *(f"--side={label}={src}" for label, src in sides.items())]
    return json.loads(subprocess.run(argv, check=True, capture_output=True, text=True).stdout)


def main(ladder, argv: "list[str] | None" = None) -> int:
    """Run the ladder module ``ladder`` as its command line asks; see the module docstring."""
    p = parser(ladder.__doc__, ladder.OUT)
    # One rung of one round in this process, as JSON on stdout, for each --side=label=src in turn.
    p.add_argument("--rung", type=int, help=argparse.SUPPRESS)
    p.add_argument("--round", type=int, help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--side", action="append", default=[], help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.rung is not None:
        packages = {label: _load(src, f"ettrace_{label}").__name__
                    for label, src in (side.split("=", 1) for side in args.side)}
        print(json.dumps(ladder.one_rung(packages, args.rung, args.round, args.work)))
        return 0
    sides = checkouts(p, args.before_src)
    samples: "list[list[dict]]" = []  # per round, per rung: the child's sample of each side
    with tempfile.TemporaryDirectory() as work:
        if hasattr(ladder, "setup"):
            ladder.setup(_load(str(sides["after"]), "ettrace_setup").__name__, Path(work))
        for i in range(args.repeats):
            samples.append([_rung_in_child(ladder, {label: sides[label] for label in order(sides, i + rung)},
                                           rung, i, work) for rung in range(len(ladder.RUNGS))])
            print(f"round {i + 1}/{args.repeats} done", file=sys.stderr)
    results = {label: summarize(ladder, [[s[label] for s in rnd] for rnd in samples]) for label in sides}
    for label, result in results.items():
        for r in result["rungs"]:
            print(f"{label:>6} {r['rung']:>18}  min {r['min_process_s']:8.4f} s  IQR {r['iqr_share']:6.1%}  "
                  + ladder.LINE.format(**r), file=sys.stderr)
        if "fit" in result:
            print(f"{label:>6} fit {json.dumps(result['fit'])}", file=sys.stderr)
    if args.before_src:
        results["paired"] = paired([r["rung"] for r in results["after"]["rungs"]], samples)
        for r in results["paired"]:
            print(f"after/before {r['rung']:>18}  median {r['ratio_median']:.3f}  IQR {r['ratio_iqr']:.3f}"
                  + (f"  same bytes {r['same_bytes']}" if "same_bytes" in r else ""), file=sys.stderr)
    doc = header(Path(ladder.__file__).stem, repeats=args.repeats, **getattr(ladder, "HEADER", {}), **results)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def run_all(argv: "list[str] | None" = None) -> int:
    """Each of ``SCRIPTS`` in turn, with its defaults and the given ``--before-src``; the first nonzero exit."""
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--before-src", type=Path, help="another checkout's src/, timed alongside as 'before'")
    args = p.parse_args(argv)
    checkouts(p, args.before_src)  # refused before the first script starts
    extra = ["--before-src", str(args.before_src)] if args.before_src else []
    for script in SCRIPTS:
        print(f"bench/{script}", file=sys.stderr)
        code = subprocess.run([sys.executable, str(Path(__file__).resolve().parent / script), *extra]).returncode
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
