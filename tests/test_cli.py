import json
import random
import shutil

import pytest

from ettrace import codec
from ettrace.builder import TraceBuilder
from ettrace.cli import main
from ettrace.schema import CommType


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, capsys, name="w", *extra):
    out = tmp_path / name
    code, _, err = run(capsys, "generate", "--preset", "mlp-dp", "--npus", "4",
                       "--out", str(out), *extra)
    assert code == 0 and "wrote 4 trace(s)" in err
    return out


def test_usage_errors_exit_1(capsys):
    for argv in (
        [],
        ["frobnicate"],
        ["generate", "--npus", "4", "--out", "x"],  # neither preset nor parallelism
        ["simulate", "--trace-dir", "x", "--topology", "torus2d:2x2", "--bw", "a,b"],
        ["sweep", "--preset", "mlp-dp", "--npus", "1,4", "--bw", "31e9;62e9"],
        ["generate", "--preset", "mlp-dp", "--npus", "4", "--out", "x", "--dims"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 1, argv
        capsys.readouterr()


def test_generate_writes_trace_files(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    assert sorted(p.name for p in out.iterdir()) == [f"trace.{i}.et" for i in range(4)]
    traces = codec.read_workload(out)
    assert [t.npu_id for t in traces] == [0, 1, 2, 3]


def test_generate_custom_scheme_and_binary_format(tmp_path, capsys):
    out = tmp_path / "hybrid"
    code, _, _ = run(capsys, "generate", "--parallelism", "dp_mp", "--npus", "4",
                     "--dims", "2x2", "--layers", "2", "--out", str(out),
                     "--trace-format", "binary")
    assert code == 0
    blob = (out / "trace.0.et").read_bytes()
    assert blob.startswith(b"CHKET\0")
    assert len(codec.read_workload(out)) == 4


def test_validate_ok_and_failure(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    code, stdout, _ = run(capsys, "validate", str(out))
    assert code == 0 and stdout.strip() == f"{out}: OK"

    single = out / "trace.0.et"
    code, stdout, _ = run(capsys, "validate", str(single))
    assert code == 0 and "OK" in stdout

    bad = tmp_path / "bad.0.et"
    doc = json.loads(single.read_text())
    doc["nodes"][0]["parents"] = [999999]
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2 and "999999" in err


def test_validate_reports_out_of_range_and_non_finite(tmp_path, capsys):
    for code_name, value in (("out-of-range", 2**63), ("non-finite", float("nan"))):
        b = TraceBuilder(0)
        b.add_node("COMP", "n", {"x": value})
        path = tmp_path / f"{code_name}.0.et"
        codec.write_trace(b.build(validate=False), path, validate=False)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and code_name in err and "Traceback" not in err, err


def test_validate_non_string_name_is_data_error(tmp_path, capsys):
    b = TraceBuilder(0)
    b.add_node("COMP", 5, {"runtime": 1})
    path = tmp_path / "named-five.0.et"
    codec.write_trace(b.build(validate=False), path, validate=False)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "name must be a string" in err and "Traceback" not in err, err


def test_validate_missing_path_is_data_error(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.et")
    assert code == 2 and "error:" in err


def test_visualize(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    dot_file = tmp_path / "g.dot"
    code, stdout, _ = run(capsys, "visualize", str(out / "trace.0.et"),
                          "--output", str(dot_file))
    assert code == 0 and stdout == ""
    assert dot_file.read_text().startswith("digraph et {")
    code, stdout, _ = run(capsys, "visualize", str(out / "trace.1.et"))
    assert code == 0 and stdout.startswith("digraph et {")


def test_simulate_summary_timeline_and_chrome(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    csv_file = tmp_path / "timeline.csv"
    chrome_file = tmp_path / "chrome.json"
    code, stdout, err = run(
        capsys, "simulate", "--trace-dir", str(out),
        "--topology", "torus2d:2x2", "--bw", "62e9",
        "--timeline", str(csv_file), "--chrome", str(chrome_file),
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("makespan_cycles,")
    assert int(lines[0].split(",")[1]) > 0
    assert lines[1] == "npu_id,compute_busy,comm_busy,mem_busy,exposed_comm"
    assert len(lines) == 6  # header rows + one per NPU
    assert "wrote timeline" in err and "wrote chrome trace" in err

    events = json.loads(chrome_file.read_text())
    assert isinstance(events, list) and events
    assert {e["ph"] for e in events} == {"X"}
    assert len(events) == len(csv_file.read_text().splitlines()) / 2

    # the standalone timeline subcommand reproduces the same JSON
    code, stdout, _ = run(capsys, "timeline", str(csv_file), "--trace-dir", str(out))
    assert code == 0
    assert stdout == chrome_file.read_text()


def test_simulate_missing_trace_dir_is_data_error(capsys):
    code, _, err = run(capsys, "simulate", "--trace-dir", "/no/such/dir",
                       "--topology", "torus2d:2x2", "--bw", "62e9")
    assert code == 2 and "error:" in err


def test_simulate_deadlock_exits_3(tmp_path, capsys):
    b0 = TraceBuilder(0)
    first = b0.coll("A", CommType.ALL_REDUCE, 64, "g")
    b0.coll("B", CommType.ALL_GATHER, 64, "g", parents=[first])
    b1 = TraceBuilder(1)
    first = b1.coll("B", CommType.ALL_GATHER, 64, "g")
    b1.coll("A", CommType.ALL_REDUCE, 64, "g", parents=[first])
    d = tmp_path / "bad"
    codec.write_workload([b0.build(), b1.build()], d)
    code, _, err = run(capsys, "simulate", "--trace-dir", str(d),
                       "--topology", "torus2d:2x1", "--bw", "62e9")
    assert code == 3
    assert "deadlock" in err and "'A'" in err and "'B'" in err


def test_simulate_untimeable_node_is_data_error(tmp_path, capsys):
    b = TraceBuilder(0)
    b.add_node("COMP", "mm", {"num_ops": 5000})
    d = tmp_path / "untimed"
    codec.write_workload([b.build()], d)
    code, _, err = run(capsys, "simulate", "--trace-dir", str(d), "--topology", "torus2d:1x1",
                       "--bw", "62e9", "--compute-timing", "model")
    assert code == 2
    assert "npu 0 node 1" in err and "Traceback" not in err


def test_simulate_rank_outside_topology_is_data_error(tmp_path, capsys):
    d = gen(tmp_path, capsys)
    code, _, err = run(capsys, "simulate", "--trace-dir", str(d), "--topology", "torus2d:2x1", "--bw", "62e9")
    assert code == 2
    assert "rank 2 outside topology of 2 NPUs" in err and "Traceback" not in err


def test_synthesize_bad_models_is_data_error(tmp_path, capsys):
    for name, text in (("list.json", "[]"), ("partial.json", '{"version": 1}')):
        models_file = tmp_path / name
        models_file.write_text(text)
        code, _, err = run(capsys, "synthesize", "--models", str(models_file),
                           "--npus", "2", "--out", str(tmp_path / "synth"))
        assert code == 2 and err.startswith("error: models document"), (name, err)


def test_timeline_rejects_bad_csv(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    bad = tmp_path / "bad.csv"
    bad.write_text("issue,0,0,1,a\n")
    code, _, err = run(capsys, "timeline", str(bad), "--trace-dir", str(out))
    assert code == 2 and "not bracketed" in err


def test_sweep_scaling_and_bandwidth(tmp_path, capsys):
    out_file = tmp_path / "scaling.csv"
    code, _, _ = run(capsys, "sweep", "--preset", "mlp-dp", "--npus", "1,4",
                     "--bw", "62e9", "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "preset,npus,dims,makespan_cycles,perf_norm,exposed_share"
    assert len(lines) == 3

    code, stdout, _ = run(capsys, "sweep", "--preset", "mlp-dp", "--npus", "4",
                          "--bw", "31e9;62e9", "--kind", "switch2lvl")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("preset,npus,")
    assert len(lines) == 3


def test_fit_then_synthesize_chain(tmp_path, capsys):
    w1 = gen(tmp_path, capsys, "w1")
    out2 = tmp_path / "w2"
    code, _, _ = run(capsys, "generate", "--preset", "mlp-mp", "--npus", "4",
                     "--out", str(out2))
    assert code == 0

    models_file = tmp_path / "models.json"
    code, _, _ = run(capsys, "fit", str(w1), str(out2), "--components", "1",
                     "--clusters", "2", "--output", str(models_file))
    assert code == 0
    doc = json.loads(models_file.read_text())
    assert doc["version"] == 1

    synth_dir = tmp_path / "synth"
    code, _, err = run(capsys, "synthesize", "--models", str(models_file),
                       "--npus", "4", "--num-ops", "12", "--out", str(synth_dir))
    assert code == 0 and "wrote 4 trace(s)" in err

    code, _, _ = run(capsys, "validate", str(synth_dir))
    assert code == 0
    code, stdout, _ = run(capsys, "simulate", "--trace-dir", str(synth_dir),
                          "--topology", "torus2d:2x2", "--bw", "62e9")
    assert code == 0 and stdout.startswith("makespan_cycles,")


def test_convert_pytorch_and_flexflow(tmp_path, capsys):
    pt = tmp_path / "graph.json"
    pt.write_text(json.dumps({"nodes": [
        {"id": 1, "name": "aten::mm", "ctrl_deps": [], "dur": 50, "npu": 0},
        {"id": 2, "name": "aten::relu", "ctrl_deps": [1], "dur": 5, "npu": 1},
    ]}))
    out = tmp_path / "pt"
    code, _, err = run(capsys, "convert", str(pt), "--out", str(out))
    assert code == 0 and "wrote 2 trace(s)" in err
    assert len(codec.read_workload(out)) == 2

    ff = tmp_path / "graph.dot"
    ff.write_text('digraph g {\n  a [label="Dense", cycles=10, npu=0];\n}\n')
    out = tmp_path / "ff"
    code, _, _ = run(capsys, "convert", str(ff), "--out", str(out))
    assert code == 0

    # unknown suffix needs an explicit dialect
    mystery = tmp_path / "graph.txt"
    mystery.write_text("digraph g {\n}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["convert", str(mystery), "--out", str(tmp_path / "x")])
    assert exit_info.value.code == 1
    capsys.readouterr()
    code, _, _ = run(capsys, "convert", str(mystery), "--format", "flexflow",
                     "--out", str(tmp_path / "empty"))
    assert code == 0


def test_convert_bad_input_is_data_error(tmp_path, capsys):
    corrupt = tmp_path / "broken.json"
    corrupt.write_text("{nope")
    code, _, err = run(capsys, "convert", str(corrupt), "--out", str(tmp_path / "x"))
    assert code == 2 and "not valid JSON" in err


def test_corrupted_trace_files_never_escape_the_exit_codes(tmp_path, capsys):
    rng = random.Random(5)
    for fmt in ("json", "binary"):
        clean = gen(tmp_path, capsys, f"clean-{fmt}", "--trace-format", fmt)
        for path in sorted(clean.iterdir()):
            data = path.read_bytes()
            variants = [data[:cut] for cut in (0, 1, 7, len(data) // 2, len(data) - 1)]
            for _ in range(6):
                flipped = bytearray(data)
                flipped[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
                variants.append(bytes(flipped))
            garbage = bytes(rng.randrange(256) for _ in range(64))
            variants += [garbage, codec.MAGIC + garbage, b'{"nodes": [' + garbage]
            for i, blob in enumerate(variants):
                work = tmp_path / f"{fmt}-{path.stem}-{i}"
                shutil.copytree(clean, work)
                (work / path.name).write_bytes(blob)
                for argv in (
                    ["validate", str(work)],
                    ["simulate", "--trace-dir", str(work), "--topology", "torus2d:2x2", "--bw", "62e9"],
                ):
                    code, _, err = run(capsys, *argv)
                    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, blob[:32], err)
