"""Fit ladder: ``ettrace fit`` over growing corpora, run in-process.

Usage, from the root of a checkout (``bench/ladder.py`` gives the method):

    python3 bench/fit_ladder.py                    # writes BENCH_fit.json
    python3 bench/fit_ladder.py --repeats 5 --out /tmp/fit.json
    python3 bench/fit_ladder.py --before-src ../other/src   # also time another checkout

Set-up generates ten workloads with this checkout's ``ettrace generate``: the
presets dlrm, mlp-dp, mlp-hybrid, mlp-mp and transformer at 8 and 64 NPUs, as
JSON traces. A rung of W workloads passes the first W directories of those ten,
repeated in that order, to ``ettrace fit --seed 0 --output <file>`` through
``cli.main``: the command as a user runs it, so decoding, validation, the
merge replays, the fit and the write of the models JSON are all inside. The
rungs are 24, 240 and 960 workloads. Within a round each side runs the command
once, after every module the command imports, numpy included, is loaded, and
each run checks that both sides wrote the same models bytes. In the first
round only, each side then runs the rung once more under ``tracemalloc``, for
the peak of the memory the command allocates; ``cli.main`` pauses the cyclic
collector while a command runs, so that peak is the same in every round.

Its columns per rung are the workload and collective-op counts (the ops are
the sums of the models' sequence lengths), milliseconds per workload at the
minimum process time, and the ``tracemalloc`` peak in bytes. Over the rungs it
fits minimum process seconds against workloads by least squares
(``slope_ms_per_workload``) and on log-log axes (``loglog_exponent``), and
gives the peak's growth per added workload and per added collective op from
the first rung to the last.
"""
from __future__ import annotations

import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import ladder

OUT = "BENCH_fit.json"
RUNGS = (24, 240, 960)  # workloads
WORKLOADS = tuple((preset, npus) for preset in ("dlrm", "mlp-dp", "mlp-hybrid", "mlp-mp", "transformer")
                  for npus in (8, 64))
HEADER = {"workloads": [f"{preset}-{npus}" for preset, npus in WORKLOADS]}
LINE = "{ops:>6} ops  {ms_per_workload:6.1f} ms/workload  peak {peak_bytes:>9} B"


def setup(package: str, work: Path) -> None:
    """One directory per ``WORKLOADS`` entry under ``work``, written by ``package``."""
    cli = importlib.import_module(f"{package}.cli")
    for preset, npus in WORKLOADS:
        argv = ["generate", "--preset", preset, "--npus", str(npus), "--out", str(work / f"{preset}-{npus}")]
        ladder.command(cli, argv, "set-up")


def one_rung(packages: "dict[str, str]", rung: int, round_index: int, work: str) -> dict:
    """One round's sample of rung ``rung`` for each side (label -> package), run in turn."""
    dirs = [str(Path(work) / f"{preset}-{npus}") for preset, npus in WORKLOADS]
    dirs = [dirs[i % len(dirs)] for i in range(RUNGS[rung])]
    clis = {}
    for label, name in packages.items():
        importlib.import_module(f"{name}.synth")  # numpy too: neither side's timed run imports it
        clis[label] = importlib.import_module(f"{name}.cli")
    out: dict = {}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for label, cli in clis.items():
            models = Path(tmp) / f"{label}.json"
            argv = ["fit", *dirs, "--seed", "0", "--output", str(models)]
            cpu, wall, _ = ladder.timed(lambda: ladder.command(cli, argv, label))
            text = models.read_bytes()
            digests[label] = hashlib.sha256(text).hexdigest()
            clusters = json.loads(text)["type_model"]["clusters"]
            out[label] = {"process_s": cpu, "wall_s": wall, "ops": sum(sum(c["lengths"]) for c in clusters)}
        if round_index == 0:
            argv = ["fit", *dirs, "--seed", "0", "--output", str(Path(tmp) / "peak.json")]
            for label, cli in clis.items():
                out[label]["peak_bytes"] = ladder.peak(lambda: ladder.command(cli, argv, label))
    return {"same_bytes": len(set(digests.values())) == 1, **out}


def columns(rung: int, samples: "list[dict]", min_s: float) -> dict:
    workloads = RUNGS[rung]
    return {
        "rung": f"fit-{workloads}",
        "workloads": workloads,
        "ops": samples[0]["ops"],
        "ms_per_workload": round(min_s / workloads * 1e3, 2),
        "peak_bytes": samples[0]["peak_bytes"],  # taken in the first round only
    }


def fits(rows: "list[dict]") -> dict:
    slope, exponent = ladder.fit([r["workloads"] for r in rows], [r["min_process_s"] for r in rows])
    first, last = rows[0], rows[-1]
    growth = last["peak_bytes"] - first["peak_bytes"]
    return {
        "slope_ms_per_workload": round(slope * 1e3, 3),
        "loglog_exponent": round(exponent, 3),
        "peak_growth_bytes_per_workload": round(growth / (last["workloads"] - first["workloads"])),
        "peak_growth_bytes_per_op": round(growth / (last["ops"] - first["ops"]), 2),
    }


if __name__ == "__main__":
    sys.exit(ladder.main(sys.modules[__name__]))
