"""ettrace benchmark: three CLI paths, run in-process through ``ettrace.cli.main``.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-128x32 --seed 0 --seconds 35 --trace 0

``--trace 0`` repeats the workload's pass for ``--seconds`` seconds (at least
once, and never starting one expected to end later) and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes the same way and
prints the per-layer metrics. Every pass is checked against the
reference digests in ``reference.json``; a pass with a non-zero exit or a
mismatching output counts as failed. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. See
``README.md`` for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import Tracer, instrument, write_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
WORK = ROOT / ".perfbench_work"

CHROME = "chrome.json"
CORPUS_PRESETS = ("dlrm", "mlp-dp", "mlp-hybrid", "mlp-mp", "transformer")
# The synth-chain seed picks one of this many corpus/seed variants, each with
# recorded reference digests, so that any seed can be checked.
SYNTH_VARIANTS = 8
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Workload:
    """One user command path. ``{out}`` and ``{corpus}`` in ``commands`` are directories."""

    name: str
    variant: str  # key of this workload's reference digests
    commands: tuple[tuple[str, ...], ...]
    corpus: tuple[tuple[str, int], ...] = ()  # (preset, npus) generated once at set-up

    @property
    def chrome(self) -> bool:
        return any("--chrome" in command for command in self.commands)


def _simulate(topology: str, lat: "str | None", chrome: bool) -> tuple[str, ...]:
    argv = ["simulate", "--trace-dir", "{out}/gen", "--topology", topology, "--bw", "62e9"]
    if lat:
        argv += ["--lat", lat]
    argv += ["--timeline", "{out}/timeline.csv", "--output", "{out}/summary.csv"]
    if chrome:
        argv += ["--chrome", "{out}/" + CHROME]
    return tuple(argv)


def make_workload(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks it for the self-test."""
    if name == "pipeline-128x32":
        npus, micro, topo = ("8", "4", "torus2d:4x2") if tiny else ("128", "32", "torus2d:16x8")
        generate = ("generate", "--parallelism", "pipeline", "--npus", npus, "--microbatches", micro,
                    "--trace-format", "binary", "--out", "{out}/gen")
        return Workload(name, "all", (generate, _simulate(topo, "1e-6", chrome=True)))
    if name == "transformer-512":
        npus, topo = ("16", "torus2d:4x4") if tiny else ("512", "torus2d:32x16")
        generate = ("generate", "--preset", "transformer", "--npus", npus, "--out", "{out}/gen")
        validate = ("validate", "{out}/gen")
        return Workload(name, "all", (generate, validate, _simulate(topo, "1e-6", chrome=True)))
    if name == "synth-chain":
        variant = seed % SYNTH_VARIANTS
        rng = random.Random(variant)
        size, npus_choices, npus, ops, topo = (
            (4, (4,), "4", "40", "switch2lvl:2x2") if tiny else (24, (4, 8, 16), "8", "2000", "switch2lvl:4x2")
        )
        corpus = tuple((rng.choice(CORPUS_PRESETS), rng.choice(npus_choices)) for _ in range(size))
        fit = ("fit", *(f"{{corpus}}/{i:02d}" for i in range(size)), "--seed", str(variant),
               "--output", "{out}/models.json")
        synthesize = ("synthesize", "--models", "{out}/models.json", "--npus", npus, "--num-ops", ops,
                      "--seed", str(variant), "--out", "{out}/gen")
        return Workload(name, str(variant), (fit, synthesize, _simulate(topo, None, chrome=False)), corpus)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


WORKLOADS = ("pipeline-128x32", "transformer-512", "synth-chain")


def load_ettrace():
    """Import ettrace from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ettrace
    import ettrace.cli

    if not Path(ettrace.__file__).resolve().is_relative_to(src):
        raise ImportError(f"ettrace imported from {ettrace.__file__}, not from {src}")
    return ettrace


# --------------------------------------------------------------------------
# One pass and its output gate
# --------------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float
    simulate_seconds: float
    problems: list[str]


def run_command(et, argv: list[str], tracer: "Tracer | None" = None) -> "int | str":
    """Run one CLI command in-process; the exit code, or the exception text."""
    main = tracer.wrap(f"cli.{argv[0]}", et.cli.main) if tracer else et.cli.main
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception:  # a crash fails the pass; the run goes on
        return traceback.format_exc()


def run_pass(et, wl: Workload, out: Path, corpus: Path, tracer: "Tracer | None" = None) -> PassResult:
    """Run the workload's commands once into the empty directory ``out``."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    simulate_seconds = 0.0
    start = time.perf_counter()
    for template in wl.commands:
        argv = [arg.format(out=out, corpus=corpus) for arg in template]
        began = time.perf_counter()
        code = run_command(et, argv, tracer)
        if argv[0] == "simulate":
            simulate_seconds = time.perf_counter() - began
        if code != 0:
            return PassResult(0.0, 0.0, [f"{argv[0]} exited with {code!r}"])
    return PassResult(time.perf_counter() - start, simulate_seconds, [])


def file_digests(directory: Path, skip: str = "") -> dict[str, str]:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file() and path.name != skip
    }


def replayed_nodes(out: Path) -> int:
    with (out / "timeline.csv").open() as rows:
        return sum(1 for row in rows if row.startswith("callback,"))


def corpus_digest(corpus: Path) -> str:
    return hashlib.sha256(json.dumps(file_digests(corpus)).encode()).hexdigest()


def reference_of(wl: Workload, out: Path, corpus: Path) -> dict:
    """The reference entry that ``check_pass`` compares a pass against."""
    entry = {"nodes": replayed_nodes(out), "sha256": file_digests(out, skip=CHROME)}
    if wl.corpus:
        entry["corpus_sha256"] = corpus_digest(corpus)
    return entry


def check_pass(wl: Workload, out: Path, ref: dict) -> list[str]:
    """Output gate: byte digests of every output but the Chrome trace, whose
    bytes may change; it must parse and hold one "X" event per replayed node."""
    got, want = file_digests(out, skip=CHROME), ref["sha256"]
    problems = [f"{name}: digest mismatch" for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]
    if wl.chrome:
        try:
            doc = json.loads((out / CHROME).read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"{CHROME}: {exc}"]
        events = doc.get("traceEvents", []) if isinstance(doc, dict) else doc
        complete = sum(1 for e in events if isinstance(e, dict) and e.get("ph") == "X")
        if complete != ref["nodes"]:
            problems.append(f"{CHROME}: {complete} X events for {ref['nodes']} replayed nodes")
    return problems


def setup_corpus(et, wl: Workload, corpus: Path) -> None:
    for i, (preset, npus) in enumerate(wl.corpus):
        argv = ["generate", "--preset", preset, "--npus", str(npus), "--out", str(corpus / f"{i:02d}")]
        code = run_command(et, argv)
        if code != 0:
            raise RuntimeError(f"corpus set-up: {' '.join(argv)} exited with {code!r}")


# --------------------------------------------------------------------------
# Measurement
# --------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, wl: Workload, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"{wl.name}: pass {self.attempted} failed: {'; '.join(problems[:5])}", file=sys.stderr)
        return not problems


def another_lap(start: float, seconds: float, laps: list[float]) -> bool:
    """True if one more lap, as long as the median lap so far, ends within ``seconds``."""
    return not laps or time.perf_counter() - start + statistics.median(laps) <= seconds


def import_seconds() -> float:
    """Time for a fresh interpreter to import ettrace."""
    code = "import time; t = time.perf_counter(); import ettrace; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout)


def measure(et, wl: Workload, ref: dict, seconds: float, out: Path, corpus: Path) -> tuple[Tally, dict]:
    """Untraced passes for ``seconds``; the end-to-end metrics.

    Set-up samples are taken one after each pass, topped up to
    ``SETUP_REPEATS`` at the end, so they span the same stretch of time as
    the passes; one unmeasured import goes first to warm the file cache.
    """
    tally = Tally()
    pass_s, simulate_s, setup_s = [], [], []
    import_seconds()
    laps: list[float] = []
    start = time.perf_counter()
    while another_lap(start, seconds, laps):
        lap = time.perf_counter()
        result = run_pass(et, wl, out, corpus)
        if tally.record(wl, result.problems or check_pass(wl, out, ref)):
            pass_s.append(result.seconds)
            simulate_s.append(result.simulate_seconds)
        gc.collect()
        setup_s.append(import_seconds())
        laps.append(time.perf_counter() - lap)
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(import_seconds())
    if not pass_s:
        return tally, {}
    return tally, {
        "pass_nodes_per_s": (ref["nodes"] / statistics.median(pass_s), "nodes/s", len(pass_s)),
        "simulate_s": (statistics.median(simulate_s), "s", len(simulate_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    }


def layer_metrics(tr: Tracer, traces: int) -> dict:
    """Per-layer metrics of one traced pass; ``_s`` values are self time."""
    polls = tr.calls("feeder.get_next_issuable_node")
    replay_s = tr.total_s("simulator.run_simulation")
    events = tr.values.get("events", 0)
    return {
        "builder.assign_dep_s": (tr.self_s("builder.assign_dep"), "s"),
        "builder.build_s": (tr.self_s("builder.build"), "s"),
        "builder.nodes": (tr.count("builder.build"), "count"),
        "workloads.generate_s": (tr.self_s("workloads.generate_workload"), "s"),
        "codec.encode_s": (tr.self_s("codec.encode_trace"), "s"),
        "codec.decode_s": (tr.self_s("codec.decode_trace"), "s"),
        "codec.bytes": (tr.count("codec.encode_trace", "codec.decode_trace"), "bytes"),
        "codec.files": (tr.calls("codec.encode_trace", "codec.decode_trace"), "count"),
        "validate.s": (tr.self_s("validate.validate_trace", "validate.validate_workload"), "s"),
        "validate.calls_per_trace": (tr.calls("validate.validate_trace") / traces, "ratio"),
        "feeder.polls": (polls, "count"),
        "feeder.poll_hit_ratio": (tr.count("feeder.get_next_issuable_node") / polls if polls else 0.0, "ratio"),
        "feeder.s": (tr.self_s(*tr.names("feeder.")), "s"),
        "simulator.replay_s": (replay_s, "s"),
        "simulator.self_s": (tr.self_s("simulator.run_simulation"), "s"),
        "simulator.events": (events, "count"),
        "simulator.batches": (tr.values.get("batches", 0), "count"),
        "simulator.replay_nodes_per_s": (events / replay_s if replay_s else 0.0, "nodes/s"),
        "simulator.makespan_cycles": (tr.values.get("makespan_cycles", 0), "cycles"),
        "simulator.exposed_comm_share": (tr.values.get("exposed_comm_share", 0.0), "ratio"),
        "costmodel.calls": (tr.calls(*tr.names("costmodel.")), "count"),
        "costmodel.s": (tr.self_s(*tr.names("costmodel.")), "s"),
        "viz.timeline_csv_s": (tr.self_s("viz.emit_timeline_csv"), "s"),
        "viz.chrome_s": (
            tr.self_s("viz.node_type_lookup", "viz.timeline_to_chrome_trace", "viz.timeline_to_chrome_events"),
            "s",
        ),
        "viz.chrome_events": (tr.count("viz.timeline_to_chrome_events"), "count"),
        "synth.master_s": (tr.self_s("synth.build_master_trace"), "s"),
        "synth.fit_s": (tr.self_s("synth.fit_models"), "s"),
        "synth.sample_s": (tr.self_s("synth.synthesize"), "s"),
    }


def makespan_of(out: Path) -> int:
    first = (out / "summary.csv").read_text().split("\n", 1)[0]
    return int(first.split(",")[1])


def measure_traced(et, wl: Workload, ref: dict, seconds: float, out: Path, corpus: Path,
                   spans: "Path | None") -> tuple[Tally, dict]:
    """Untraced and traced passes in turn for ``seconds``; the per-layer metrics."""
    tally = Tally()
    plain_s, traced_s, tracers, layers, laps = [], [], [], [], []
    start = time.perf_counter()
    while another_lap(start, seconds, laps):
        lap = time.perf_counter()
        result = run_pass(et, wl, out, corpus)
        if tally.record(wl, result.problems or check_pass(wl, out, ref)):
            plain_s.append(result.seconds)
            makespan = makespan_of(out)
        gc.collect()
        tracer = Tracer()
        with instrument(tracer, et):
            result = run_pass(et, wl, out, corpus, tracer)
        problems = result.problems or check_pass(wl, out, ref)
        if not problems and plain_s and tracer.values.get("makespan_cycles") != makespan:
            problems = [f"traced makespan {tracer.values.get('makespan_cycles')} != untraced {makespan}"]
        if tally.record(wl, problems):
            traced_s.append(result.seconds)
            tracers.append(tracer)
            layers.append(layer_metrics(tracer, len(list((out / "gen").iterdir()))))
        gc.collect()
        laps.append(time.perf_counter() - lap)
    if spans is not None:
        write_spans(tracers, spans)
    if not (plain_s and traced_s):
        return tally, {}
    metrics = {
        name: (statistics.median(layer[name][0] for layer in layers), unit, len(layers))
        for name, (_, unit) in layers[0].items()
    }
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    metrics["trace_overhead_ratio"] = (overhead, "ratio", min(len(traced_s), len(plain_s)))
    return tally, metrics


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run(et, wl: Workload, ref: dict, seconds: float, trace: bool, spans: "Path | None" = None) -> dict:
    """Set up, measure and clean up; the result object printed as the last line."""
    work = WORK / f"{wl.name}-{os.getpid()}"
    corpus = work / "corpus"
    try:
        setup_corpus(et, wl, corpus)
        problems = []
        if wl.corpus and corpus_digest(corpus) != ref["corpus_sha256"]:
            problems.append("corpus: digest mismatch")
        out = work / "pass"
        if trace:
            tally, metrics = measure_traced(et, wl, ref, seconds, out, corpus, spans)
        else:
            tally, metrics = measure(et, wl, ref, seconds, out, corpus)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        print(f"{wl.name}: {'; '.join(problems)}", file=sys.stderr)
    return {
        "correct": not problems and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    try:
        et = load_ettrace()
        ref = json.loads(REFERENCE.read_text())[args.workload]
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: cannot start: {exc!r}", file=sys.stderr)
        return 2
    wl = make_workload(args.workload, args.seed)
    spans = WORK / "spans" / f"{wl.name}-seed{args.seed}.jsonl" if args.trace else None
    result = run(et, wl, ref[wl.variant], args.seconds, bool(args.trace), spans)
    if not result["metrics"]:
        print(f"perfbench: {wl.name}: no pass completed", file=sys.stderr)
        return 1
    report(wl, args.seed, result)
    return 0


def report(wl: Workload, seed: int, result: dict) -> None:
    """Print each metric with its unit and sample count, then the result line."""
    print(f"{wl.name} seed {seed} (variant {wl.variant}): {result['attempted']} passes, "
          f"fail_ratio {result['failed'] / result['attempted']:.3g}")
    for name, (value, unit, samples) in result["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {unit:8s} n={samples}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()}
    print(json.dumps(dict(result, metrics=metrics)))


if __name__ == "__main__":
    sys.exit(main())
