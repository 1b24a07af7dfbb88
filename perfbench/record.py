"""Record the reference digests that the benchmark's output gate checks.

    python3 perfbench/record.py

Runs one pass of every workload variant and writes ``reference.json``: per
workload and variant, the replayed node count, the sha256 of every output
file except the Chrome trace, and for ``synth-chain`` a digest of its corpus.
Re-record only for a change that is meant to alter outputs, and say so.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run


def record_variant(et, wl: run.Workload) -> dict:
    work = run.WORK / f"record-{os.getpid()}"
    corpus, out = work / "corpus", work / "pass"
    try:
        run.setup_corpus(et, wl, corpus)
        result = run.run_pass(et, wl, out, corpus)
        if result.problems:
            raise RuntimeError(f"{wl.name} variant {wl.variant}: {result.problems}")
        return run.reference_of(wl, out, corpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    et = run.load_ettrace()
    reference: dict[str, dict] = {}
    for name in run.WORKLOADS:
        seeds = range(run.SYNTH_VARIANTS) if name == "synth-chain" else range(1)
        for seed in seeds:
            wl = run.make_workload(name, seed)
            reference.setdefault(name, {})[wl.variant] = record_variant(et, wl)
            print(f"{name} variant {wl.variant}: {reference[name][wl.variant]['nodes']} nodes", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
