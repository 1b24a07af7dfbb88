"""Synthesis ladder: ``ettrace synthesize`` at growing op counts, run in-process.

Usage, from the root of a checkout (``bench/ladder.py`` gives the method):

    python3 bench/synth_ladder.py                  # writes BENCH_synthesize.json
    python3 bench/synth_ladder.py --repeats 9 --out /tmp/synth.json
    python3 bench/synth_ladder.py --before-src ../other/src   # also time another checkout

Set-up generates one workload per preset at 8 NPUs and fits one models
document on them with this checkout's ``ettrace fit --seed 0``. Each rung
then runs ``ettrace synthesize --models <it> --npus 8 --num-ops N --seed 0``
through ``cli.main`` into a fresh directory, for N = 1,000, 4,000 and 10,000
ops (8,000 to 80,000 nodes): the command as a user runs it, so model
loading, sampling, trace building, validation, encoding and the file writes
are all inside. Within a round the sides run in turn, one run each, until
each has its ``ROUND_S`` process seconds, and the round's sample is their
mean; each rung checks that both sides wrote the same bytes.

Its columns per rung are the op and node counts, the runs of each round, and
ops/s and nodes/s at the minimum process time.
"""
from __future__ import annotations

import hashlib
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import ladder

OUT = "BENCH_synthesize.json"
RUNGS = (1000, 4000, 10000)  # --num-ops
NPUS = 8
HEADER = {"npus": NPUS}
PRESETS = ("dlrm", "mlp-dp", "mlp-hybrid", "mlp-mp", "transformer")
ROUND_S = 0.5  # process seconds of synthesis per rung and round, at least
LINE = "{nodes:>6} nodes  {ops_per_s:>6} ops/s"


def setup(package: str, work: Path) -> None:
    """``work/models.json``, fitted by ``package`` on one workload per preset."""
    cli = importlib.import_module(f"{package}.cli")
    corpus = [str(work / preset) for preset in PRESETS]
    for preset, out in zip(PRESETS, corpus):
        ladder.command(cli, ["generate", "--preset", preset, "--npus", str(NPUS), "--out", out], "set-up")
    ladder.command(cli, ["fit", *corpus, "--seed", "0", "--output", str(work / "models.json")], "set-up")


def _digest(directory: Path) -> str:
    files = sorted(p for p in directory.iterdir() if p.is_file())
    return hashlib.sha256(b"".join(p.name.encode() + p.read_bytes() for p in files)).hexdigest()


def one_rung(packages: "dict[str, str]", rung: int, _: int, work: str) -> dict:
    """One round's sample of rung ``rung`` for each side (label -> package), run in turn."""
    clis = {label: importlib.import_module(f"{name}.cli") for label, name in packages.items()}
    done: "dict[str, list]" = {label: [] for label in packages}
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        while min(sum(cpu for cpu, _, _ in runs) for runs in done.values()) < ROUND_S:
            for label, cli in clis.items():
                out = Path(tmp) / label
                shutil.rmtree(out, ignore_errors=True)
                argv = ["synthesize", "--models", str(Path(work) / "models.json"), "--npus", str(NPUS),
                        "--num-ops", str(RUNGS[rung]), "--seed", "0", "--out", str(out)]
                done[label].append(ladder.timed(lambda: ladder.command(cli, argv, label)))
                digests[label] = _digest(out)
    return {
        "same_bytes": len(set(digests.values())) == 1,
        **{
            label: {
                "runs": len(runs),
                "process_s": statistics.fmean(cpu for cpu, _, _ in runs),
                "wall_s": statistics.fmean(wall for _, wall, _ in runs),
            }
            for label, runs in done.items()
        },
    }


def columns(rung: int, samples: "list[dict]", min_s: float) -> dict:
    ops = RUNGS[rung]
    return {
        "rung": f"synthesize-{ops}",
        "ops": ops,
        "nodes": ops * NPUS,
        "runs": [s["runs"] for s in samples],
        "ops_per_s": round(ops / min_s),
        "nodes_per_s": round(ops * NPUS / min_s),
    }


if __name__ == "__main__":
    sys.exit(ladder.main(sys.modules[__name__]))
