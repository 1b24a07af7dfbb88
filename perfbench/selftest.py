"""Self-test of the benchmark at tiny workload sizes.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that a run prints every metric listed in ``BENCHMARK.json`` with its
unit, that the output gate counts a pass with one flipped output byte (or a
missing Chrome event) as failed, and that the tracer's counts agree with the
replayed node count and leave no wrapper behind.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import run
from tracer import Tracer, instrument

ET = run.load_ettrace()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@contextlib.contextmanager
def tiny(name: str):
    """A tiny workload, its reference taken from one pass, and a scratch directory."""
    wl = run.make_workload(name, seed=1, tiny=True)
    work = run.WORK / f"selftest-{os.getpid()}"
    corpus, out = work / "corpus", work / "pass"
    try:
        run.setup_corpus(ET, wl, corpus)
        assert run.run_pass(ET, wl, out, corpus).problems == []
        yield wl, run.reference_of(wl, out, corpus), work
    finally:
        shutil.rmtree(work, ignore_errors=True)


@contextlib.contextmanager
def corrupting(damage):
    """Apply ``damage(out)`` to the outputs of every pass, before the gate sees them."""
    original = run.run_pass

    def damaged(et, wl, out, corpus, tracer=None):
        result = original(et, wl, out, corpus, tracer)
        damage(out)
        return result

    run.run_pass = damaged
    try:
        yield
    finally:
        run.run_pass = original


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def test_every_metric_printed_with_unit():
    for name in run.WORKLOADS:
        with tiny(name) as (wl, ref, _):
            for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
                result = run.run(ET, wl, ref, seconds=0, trace=trace)
                with contextlib.redirect_stdout(io.StringIO()) as printed:
                    run.report(wl, 1, result)
                line = json.loads(printed.getvalue().splitlines()[-1])
                assert set(line) == {"correct", "attempted", "failed", "metrics"}
                assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, (name, line)
                got = {metric: entry["unit"] for metric, entry in line["metrics"].items()}
                assert got == {m["name"]: m["unit"] for m in listed}, (name, trace)


def test_gate_fails_a_pass_with_a_flipped_byte():
    with tiny("pipeline-128x32") as (wl, ref, _):
        for target in ("gen/trace.0.et", "timeline.csv", "summary.csv"):
            with corrupting(lambda out: flip_byte(out / target)):
                result = run.run(ET, wl, ref, seconds=0, trace=False)
            assert not result["correct"], target
            assert result["failed"] == result["attempted"] == 1, (target, result)


def test_gate_checks_chrome_structure():
    def drop_event(out: Path) -> None:
        events = json.loads((out / run.CHROME).read_text())
        (out / run.CHROME).write_text(json.dumps(events[1:]))

    with tiny("transformer-512") as (wl, ref, _):
        with corrupting(drop_event):
            result = run.run(ET, wl, ref, seconds=0, trace=False)
    assert result["failed"] == result["attempted"] == 1 and not result["correct"]


def test_tracer_counts_match_the_replay():
    for name in run.WORKLOADS:
        with tiny(name) as (wl, ref, work):
            tracer = Tracer()
            with instrument(tracer, ET):
                assert run.run_pass(ET, wl, work / "pass", work / "corpus", tracer).problems == []
            assert run.check_pass(wl, work / "pass", ref) == []
            nodes = ref["nodes"]
            assert tracer.count("feeder.get_next_issuable_node") == nodes, name
            assert tracer.values["events"] == nodes, name
            assert tracer.count("builder.build") == nodes, name
            if wl.chrome:
                assert tracer.count("viz.timeline_to_chrome_events") == nodes, name
    assert ET.simulator.Feeder is ET.feeder.Feeder
    assert ET.codec.validate_trace is ET.validate.validate_trace
    assert not hasattr(ET.simulator.run_simulation, "__wrapped__")
    assert not hasattr(ET.builder.TraceBuilder.assign_dep, "__wrapped__")


def test_self_time_excludes_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20_000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls("inner") == 3 and tracer.calls("outer") == 1
    outer_total = tracer.total_s("outer")
    assert abs(tracer.self_s("outer") - (outer_total - tracer.total_s("inner"))) < 1e-9
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0]


def main() -> int:
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
