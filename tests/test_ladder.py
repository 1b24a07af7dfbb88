"""The bench harness, driven through a stub ladder that returns fixed seconds and runs no workload."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import ladder  # noqa: E402

# Process seconds per side, round and rung; wall seconds are twice as much.
SECONDS = {"before": [[1.0, 4.0], [2.0, 4.0], [4.0, 4.0]], "after": [[0.5, 4.0], [1.5, 2.0], [2.0, 1.0]]}
STUB = '''\
"""Stub ladder: fixed seconds per side, round and rung."""
import sys

sys.path.insert(0, {bench!r})
import ladder

OUT = "BENCH_stub.json"
RUNGS = ("a", "b")
SECONDS = {seconds!r}
HEADER = {{"stub": True}}
LINE = "first {{firsts}}"


def one_rung(packages, rung, round_index, work):
    first = next(iter(packages))
    sample = {{label: {{"process_s": SECONDS[label][round_index][rung], "wall_s": 2 * SECONDS[label][round_index][rung],
                       "first": first}} for label in packages}}
    return {{"same_bytes": (rung, round_index) != (1, 2), **sample}}


def columns(rung, samples, min_s):
    return {{"rung": RUNGS[rung], "firsts": [s["first"] for s in samples], "per_s": round(1 / min_s, 3)}}


def fits(rows):
    return {{"rungs": len(rows)}}


if __name__ == "__main__":
    sys.exit(ladder.main(sys.modules[__name__]))
'''


@pytest.fixture(scope="module")
def stub_run(tmp_path_factory):
    """The document the stub ladder writes over 3 rounds against a stand-in ``src/`` as "before"."""
    tmp = tmp_path_factory.mktemp("ladder")
    (tmp / "src" / "ettrace").mkdir(parents=True)
    (tmp / "src" / "ettrace" / "__init__.py").write_text("")
    script = tmp / "stub_ladder.py"
    script.write_text(STUB.format(bench=str(BENCH), seconds=SECONDS))
    out = tmp / "stub.json"
    argv = [sys.executable, str(script), "--repeats", "3", "--out", str(out), "--before-src", str(tmp / "src")]
    subprocess.run(argv, check=True, capture_output=True, text=True)
    return json.loads(out.read_text())


def test_the_header_names_the_ladder_and_its_rounds(stub_run):
    assert {k: stub_run[k] for k in ("benchmark", "repeats", "stub")} == {"benchmark": "stub_ladder", "repeats": 3,
                                                                          "stub": True}
    assert {"python", "machine", "cpus", "before", "after", "paired"} <= set(stub_run)


def test_rung_k_of_round_i_puts_before_first_when_i_plus_k_is_even(stub_run):
    for side in ("before", "after"):
        rows = stub_run[side]["rungs"]
        assert [r["firsts"] for r in rows] == [["before", "after", "before"], ["after", "before", "after"]]


def test_each_side_keeps_the_min_and_iqr_of_its_rounds(stub_run):
    a, b = stub_run["after"]["rungs"]
    assert a == {
        "rung": "a", "firsts": ["before", "after", "before"], "per_s": 2.0,
        "process_s": [0.5, 1.5, 2.0], "wall_s": [1.0, 3.0, 4.0],
        "min_process_s": 0.5, "iqr_process_s": 0.75, "iqr_share": 0.5,  # quartiles 1.0 and 1.75
        "min_wall_s": 1.0, "iqr_wall_s": 1.5,
    }
    assert (b["process_s"], b["min_process_s"], b["iqr_process_s"], b["iqr_share"]) == ([4.0, 2.0, 1.0], 1.0, 1.5, 0.75)
    assert stub_run["before"]["rungs"][1]["iqr_process_s"] == 0.0
    assert stub_run["after"]["fit"] == stub_run["before"]["fit"] == {"rungs": 2}


def test_paired_ratios_their_median_and_iqr_and_same_bytes_over_every_round(stub_run):
    assert stub_run["paired"] == [
        {"rung": "a", "ratios": [0.5, 0.75, 0.5], "ratio_median": 0.5, "ratio_iqr": 0.125, "same_bytes": True},
        {"rung": "b", "ratios": [1.0, 0.5, 0.25], "ratio_median": 0.5, "ratio_iqr": 0.375, "same_bytes": False},
    ]


def test_paired_reports_same_bytes_only_where_the_samples_carry_it():
    rounds = [[{"before": {"process_s": 2.0}, "after": {"process_s": 1.0}}]]
    assert ladder.paired(["r"], rounds) == [{"rung": "r", "ratios": [0.5], "ratio_median": 0.5, "ratio_iqr": 0.0}]


def test_fit_gives_the_linear_slope_and_the_loglog_exponent():
    slope, exponent = ladder.fit([10, 100, 1000], [0.02, 0.2, 2.0])
    assert slope == pytest.approx(0.002) and exponent == pytest.approx(1.0)


def test_a_before_src_without_a_package_and_a_zero_count_are_usage_errors(tmp_path, capsys):
    p = ladder.parser("doc", "BENCH_x.json")
    with pytest.raises(SystemExit) as info:
        ladder.checkouts(p, tmp_path)
    assert info.value.code == 2 and "holds no ettrace package" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        p.parse_args(["--repeats", "0"])
    assert "--repeats: must be >= 1" in capsys.readouterr().err
