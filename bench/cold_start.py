"""Cold start: what a fresh interpreter pays before and during one CLI command.

Usage, from the root of a checkout:

    python3 bench/cold_start.py                              # writes BENCH_startup.json
    python3 bench/cold_start.py --runs 9 --out /tmp/startup.json
    python3 bench/cold_start.py --before-src ../other/src    # also time another checkout

Each run starts three fresh interpreters with ``PYTHONPATH`` set to a
checkout's ``src/``: one times ``import ettrace`` and one ``import
ettrace.cli`` inside the child, around the import statement alone (as
perfbench's ``setup_s`` does); the third runs ``python -m ettrace.cli
simulate`` on an 8-NPU ``mlp-hybrid`` workload on ``switch2lvl:4x2`` and is
timed from spawn to exit. Every child's peak RSS is its own ``ru_maxrss``,
read through ``os.wait4``. With ``--before-src`` the runs alternate which
checkout goes first. One unmeasured round first warms the file cache. The
JSON holds, per checkout (this one is ``after``) and measurement, the median and min seconds and
peak RSS in MB, with the children's ``sys.flags.dont_write_bytecode``
(when set, every child compiles the package's sources again), the Python
version and the CPU count.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ladder

PRESET, NPUS, TOPOLOGY = "mlp-hybrid", 8, "switch2lvl:4x2"
IMPORT = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def _child(argv: "list[str]", src: Path) -> "tuple[float, float, str]":
    """Wall seconds, peak RSS in MB and stdout of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    if proc.returncode:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return seconds, usage.ru_maxrss / 1024, out.decode()


def _round(src: Path, workload: Path) -> "dict[str, tuple[float, float]]":
    """One (seconds, peak RSS MB) sample of each measurement."""
    sample = {}
    for name, module in (("import_ettrace", "ettrace"), ("import_cli", "ettrace.cli")):
        _, rss, out = _child(["-c", IMPORT.format(module)], src)
        sample[name] = (float(out), rss)
    seconds, rss, _ = _child(
        ["-m", "ettrace.cli", "simulate", "--trace-dir", str(workload), "--topology", TOPOLOGY, "--bw", "62e9"], src
    )
    sample["simulate"] = (seconds, rss)
    return sample


def _summary(samples: "list[dict[str, tuple[float, float]]]") -> dict:
    doc = {}
    for name in samples[0]:
        seconds = [s[name][0] for s in samples]
        rss = [s[name][1] for s in samples]
        doc[name] = {
            "median_s": round(statistics.median(seconds), 4),
            "min_s": round(min(seconds), 4),
            "median_peak_rss_mb": round(statistics.median(rss), 1),
            "min_peak_rss_mb": round(min(rss), 1),
        }
    return doc


def main(argv: "list[str] | None" = None) -> int:
    p = ladder.parser(__doc__, "BENCH_startup.json", "--runs", 25, "measured runs per checkout")
    args = p.parse_args(argv)
    sides = ladder.checkouts(p, args.before_src)
    samples: "dict[str, list]" = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        workload = Path(tmp) / "w"
        _child(["-m", "ettrace.cli", "generate", "--preset", PRESET, "--npus", str(NPUS), "--out", str(workload)],
               ladder.ROOT / "src")
        for side, src in sides.items():  # warm the file cache, unmeasured
            _round(src, workload)
        for i in range(args.runs):
            for side in ladder.order(sides, i):
                samples[side].append(_round(sides[side], workload))
    flags = _child(["-c", "import sys; print(int(sys.flags.dont_write_bytecode))"], ladder.ROOT / "src")[2]
    doc = ladder.header(
        "cold_start",
        dont_write_bytecode=bool(int(flags)),
        runs=args.runs,
        workload={"preset": PRESET, "npus": NPUS, "topology": TOPOLOGY, "bw": 62e9},
        **{side: _summary(s) for side, s in samples.items()},
    )
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    for side in sides:
        print(side, json.dumps(doc[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
