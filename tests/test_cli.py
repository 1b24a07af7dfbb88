import gc
import hashlib
import json
import random
import shutil
import warnings

import pytest

from ettrace import codec, synth, validate
from ettrace.builder import TraceBuilder
from ettrace.cli import main
from ettrace.schema import Attribute, AttributeKind, CommType, ETNode, NodeType, Trace, make_attributes

from conftest import invalid_chain_trace


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_unchecked(trace, path):
    """Write ``trace`` as JSON without validating it, as ``codec.write_trace`` would if it passed."""
    path.write_bytes(codec.trace_to_json(trace).encode("utf-8"))


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
        ["simulate", "--trace-dir", "x", "--topology", "torus2d:2x2", "--bw", "inf"],
        ["simulate", "--trace-dir", "x", "--topology", "torus2d:2x2", "--bw", "62e9,nan"],
        ["simulate", "--trace-dir", "x", "--topology", "torus2d:2x2", "--bw", "62e9", "--lat", "inf"],
        ["sweep", "--preset", "mlp-dp", "--npus", "4", "--bw", "31e9;1,2,3"],
        ["sweep", "--preset", "mlp-dp", "--npus", "1,4", "--bw", ";"],
        ["sweep", "--preset", "mlp-dp", "--npus", "4", "--bw", " ; "],
        ["sweep", "--preset", "mlp-dp", "--npus", "4", "--bw", "0"],
        ["sweep", "--preset", "mlp-dp", "--npus", "4", "--bw", "inf"],
        ["sweep", "--preset", "mlp-dp", "--npus", "4", "--bw=-5"],
        ["generate", "--preset", "mlp-dp", "--npus", "4", "--out", "x", "--dims"],
        ["generate", "--parallelism", "dp_mp", "--npus", "4", "--out", "x", "--dims", "2xq"],
        ["generate", "--parallelism", "dp_mp", "--npus", "4", "--out", "x", "--dims", "x"],
        ["generate", "--parallelism", "dp_mp", "--npus", "4", "--out", "x", "--dims", "4"],
        ["sweep", "--preset", "mlp-dp", "--npus", "", "--bw", "62e9"],
        ["sweep", "--preset", "mlp-dp", "--npus", "four", "--bw", "62e9"],
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
    for code_name, value in (
        ("out-of-range", 2**63),
        ("non-finite", float("nan")),
        ("non-finite", Attribute("x", AttributeKind.FLOAT, 10**400)),
        ("non-finite", [1.5, 10**400]),
    ):
        path = tmp_path / f"{code_name}.0.et"
        write_unchecked(Trace(0, (ETNode(1, "n", NodeType.COMP, attributes=make_attributes({"x": value})),)), path)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and code_name in err and "Traceback" not in err, err
        code, _, err = run(capsys, "simulate", "--trace-dir", str(tmp_path), "--prefix", code_name,
                           "--topology", "torus2d:1x1", "--bw", "62e9")
        assert code == 2 and code_name in err and "Traceback" not in err, err


def test_validate_non_string_name_is_data_error(tmp_path, capsys):
    path = tmp_path / "named-five.0.et"
    write_unchecked(Trace(0, (ETNode(1, 5, NodeType.COMP, attributes=make_attributes({"runtime": 1})),)), path)
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2 and "name must be a string" in err and "Traceback" not in err, err


def _json_trace(**fields):
    attr = {"name": "runtime", "kind": "INT", "doc_string": "", "value": 1}
    node = {"id": 1, "name": "n", "type": "COMP", "parents": [], "attributes": [dict(attr, **fields.pop("attr", {}))]}
    node.update(fields.pop("node", {}))
    return {"schema_version": "0.1", "npu_id": 0, "nodes": [node], **fields}


# JSON documents of the wrong shape, and the DecodeError each one names.
MALFORMED_JSON_TRACES = [
    ([], "trace must be a JSON object"),
    (_json_trace(schema_version=0.1), "schema_version must be a string"),
    (_json_trace(npu_id="0"), "npu_id must be an integer"),
    (_json_trace(npu_id=True), "npu_id must be an integer"),
    (_json_trace(nodes={}), "nodes must be a list"),
    (_json_trace(nodes=[5]), "node must be an object"),
    (_json_trace(node={"id": "1"}), "node id must be an integer"),
    (_json_trace(node={"id": True}), "node id must be an integer"),
    (_json_trace(node={"parents": 1}), "node 1: parents must be a list of integers"),
    (_json_trace(node={"parents": [1.5]}), "node 1: parents must be a list of integers"),
    (_json_trace(node={"attributes": {}}), "node 1: attributes must be a list"),
    (_json_trace(node={"attributes": [5]}), "node 1: attribute must be an object"),
    (_json_trace(attr={"name": 5}), "node 1: attribute name must be a string"),
    (_json_trace(attr={"doc_string": 5}), "node 1: doc_string must be a string"),
]


def test_validate_malformed_json_is_a_named_decode_error(tmp_path, capsys):
    for i, (doc, message) in enumerate(MALFORMED_JSON_TRACES):
        path = tmp_path / f"bad{i}.0.et"
        path.write_text(json.dumps(doc))
        with pytest.raises(codec.DecodeError, match=message):
            codec.read_trace(path)
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2 and message in err and "Traceback" not in err, (doc, err)


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


def test_simulate_long_invalid_chain(tmp_path, capsys):
    d = tmp_path / "chain"
    codec.write_workload([invalid_chain_trace(5000)], d)
    code, out, err = run(capsys, "simulate", "--trace-dir", str(d), "--topology", "torus2d:1x1", "--bw", "62e9")
    assert code == 0 and out.startswith("makespan_cycles,10\n") and "Traceback" not in err


def test_simulate_infinite_duration_is_data_error(tmp_path, capsys):
    d = gen(tmp_path, capsys)
    for extra in (("--bw", "1e-300"), ("--bw", "62e9", "--cycle-time", "1e-320")):
        code, _, err = run(capsys, "simulate", "--trace-dir", str(d), "--topology", "torus2d:2x2", *extra)
        assert code == 2 and "not a finite cycle count" in err and "Traceback" not in err, (extra, err)


def test_simulate_non_finite_machine_parameters_are_data_errors(tmp_path, capsys):
    d = gen(tmp_path, capsys)
    for extra in (("--cycle-time", "inf"), ("--cycle-time", "nan"), ("--compute-rate", "inf")):
        code, _, err = run(capsys, "simulate", "--trace-dir", str(d), "--topology", "torus2d:2x2",
                           "--bw", "62e9", *extra)
        assert code == 2 and "positive and finite" in err and "Traceback" not in err, (extra, err)


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


def test_timeline_reads_back_names_that_hold_other_line_breaks(tmp_path, capsys):
    # str.splitlines breaks at each of these; the CSV ends a line only at "\n".
    b = TraceBuilder(0)
    parent = ()
    for name in ("a\rb", "c\r", "\r", "d\x0be", "f\x0cg", "h\x1c\x1d\x1e", "i\x85j", "k\u2028l", "m\u2029"):
        parent = (b.comp(name, runtime=2, parents=parent),)
    traces = tmp_path / "w"
    codec.write_workload([b.build()], traces)
    csv_file, chrome_file = tmp_path / "timeline.csv", tmp_path / "chrome.json"
    code, _, _ = run(capsys, "simulate", "--trace-dir", str(traces), "--topology", "torus2d:1x1", "--bw", "62e9",
                     "--timeline", str(csv_file), "--chrome", str(chrome_file))
    assert code == 0
    code, stdout, _ = run(capsys, "timeline", str(csv_file), "--trace-dir", str(traces))
    assert code == 0 and stdout == chrome_file.read_text()
    assert len(json.loads(stdout)) == 9

    b = TraceBuilder(0)
    b.comp("a\nb", runtime=2)
    codec.write_workload([b.build()], traces)
    code, _, _ = run(capsys, "simulate", "--trace-dir", str(traces), "--topology", "torus2d:1x1", "--bw", "62e9",
                     "--timeline", str(csv_file))
    assert code == 0
    code, _, err = run(capsys, "timeline", str(csv_file), "--trace-dir", str(traces))
    assert code == 2 and "line 1: node_name field '[a' is not bracketed" in err


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


def test_fit_refuses_an_invalid_corpus(tmp_path, capsys):
    def coll(**attrs):
        return ETNode(1, "ar", NodeType.COMM_COLL, attributes=make_attributes(attrs))

    good = {"comm_type": "ALL_REDUCE", "comm_size": 64, "comm_group": "dp"}
    for label, node in (
        ("int comm_type", coll(**{**good, "comm_type": 3})),
        ("no comm_group", coll(comm_type="ALL_REDUCE", comm_size=64)),
        ("SEND collective", coll(**{**good, "comm_type": "SEND"})),
        ("negative comm_size", coll(**{**good, "comm_size": -64})),
    ):
        work = tmp_path / label.replace(" ", "-")
        work.mkdir()
        for npu in (0, 1):
            write_unchecked(Trace(npu, (node,)), work / codec.trace_filename("trace", npu))
        code, _, err = run(capsys, "fit", str(work), "--components", "1", "--clusters", "1")
        assert code == 2 and f"{work}: workload failed validation" in err and "Traceback" not in err, label


def test_fit_and_synthesize_refuse_negative_counts(tmp_path, capsys):
    w = gen(tmp_path, capsys)
    models_file = tmp_path / "models.json"
    for clusters in ("0", "-1"):
        code, _, err = run(capsys, "fit", str(w), "--clusters", clusters, "--output", str(models_file))
        assert code == 2 and "n_clusters must be >= 1" in err and not models_file.exists(), (clusters, err)
    assert run(capsys, "fit", str(w), "--components", "1", "--output", str(models_file))[0] == 0
    out = tmp_path / "synth"
    code, _, err = run(capsys, "synthesize", "--models", str(models_file), "--npus", "2", "--num-ops", "-3",
                       "--out", str(out))
    assert code == 2 and "num_ops must be >= 0" in err and not out.exists(), err
    code, _, err = run(capsys, "synthesize", "--models", str(models_file), "--npus", "2", "--num-ops", "0",
                       "--out", str(out))
    assert code == 0 and "wrote 2 trace(s)" in err


def test_fit_checks_its_counts_before_any_replay(tmp_path, capsys, monkeypatch):
    w = gen(tmp_path, capsys)
    calls = []
    real = synth.build_master_trace
    monkeypatch.setattr(synth, "build_master_trace", lambda traces: calls.append(1) or real(traces))
    for flag, message in (("--clusters", "n_clusters must be >= 1"), ("--components", "k must be >= 1")):
        code, _, err = run(capsys, "fit", str(w), str(w), flag, "0")
        assert code == 2 and message in err and "Traceback" not in err, (flag, err)
    assert calls == []


def test_fit_accepts_collective_free_workloads(tmp_path, capsys):
    dp, pp = gen(tmp_path, capsys), tmp_path / "pp"
    assert run(capsys, "generate", "--parallelism", "pipeline", "--npus", "4", "--out", str(pp))[0] == 0
    models_file = tmp_path / "models.json"
    for clusters, lengths in (("2", [[0], [6]]), ("1", [[0, 6]])):
        code, _, err = run(capsys, "fit", str(dp), str(pp), "--clusters", clusters, "--output", str(models_file))
        assert code == 0, err
        doc = json.loads(models_file.read_text())
        assert sorted(c["lengths"] for c in doc["type_model"]["clusters"]) == lengths
    out = tmp_path / "synth"
    code, _, err = run(capsys, "synthesize", "--models", str(models_file), "--npus", "4", "--num-ops", "6",
                       "--out", str(out))
    assert code == 0, err
    assert [sum(n.type is NodeType.COMM_COLL for n in t.nodes) for t in codec.read_workload(out)] == [6] * 4


# sha256 of the models JSON that ``ettrace fit`` wrote on these presets, recorded when
# fit_models still kept every master; a fit in one pass must write the same bytes.
FIT_PRESETS_SHA256 = "19aea5f64f8ff8e88154227522c4983f046631e642248917d591e7834069b5ce"


def test_fit_over_presets_keeps_its_bytes(tmp_path, capsys):
    dirs = []
    for preset, npus in (("dlrm", 8), ("mlp-hybrid", 4), ("transformer", 8), ("mlp-dp", 4)):
        dirs.append(str(tmp_path / f"{preset}-{npus}"))
        assert run(capsys, "generate", "--preset", preset, "--npus", str(npus), "--out", dirs[-1])[0] == 0
    models_file = tmp_path / "models.json"
    code, _, err = run(capsys, "fit", *dirs, dirs[0], "--seed", "5", "--output", str(models_file))
    assert code == 0, err
    assert hashlib.sha256(models_file.read_bytes()).hexdigest() == FIT_PRESETS_SHA256


def test_fit_takes_the_log2_of_a_payload_sum_past_uint64(tmp_path, capsys):
    work = tmp_path / "w"
    traces = []
    for npu in range(4):
        b = TraceBuilder(npu)
        b.coll("ar", CommType.ALL_REDUCE, 2**62, "g")
        traces.append(b.build())
    codec.write_workload(traces, work)
    models_file = tmp_path / "models.json"
    code, _, err = run(capsys, "fit", str(work), "--components", "1", "--clusters", "1", "--output", str(models_file))
    assert code == 0 and "Traceback" not in err, err
    (component,) = json.loads(models_file.read_text())["size_model"]["ALL_REDUCE"]
    assert component["mean"] == 64.0


def test_synthesize_refuses_a_cluster_with_no_lengths(tmp_path, capsys):
    models_file = tmp_path / "models.json"
    assert run(capsys, "fit", str(gen(tmp_path, capsys)), "--clusters", "1", "--output", str(models_file))[0] == 0
    doc = json.loads(models_file.read_text())
    doc["type_model"]["clusters"][0]["lengths"] = []
    models_file.write_text(json.dumps(doc))
    code, _, err = run(capsys, "synthesize", "--models", str(models_file), "--npus", "4", "--out", str(tmp_path / "s"))
    assert code == 2 and "cluster lengths" in err and "high <= 0" not in err, err


def test_fit_matches_collectives_as_simulate_does(tmp_path, capsys):
    def coll(node_id, ctype, group, parents=()):
        attrs = {"comm_type": ctype, "comm_size": 64, "comm_group": group}
        return ETNode(node_id, ctype.lower(), NodeType.COMM_COLL, parents, make_attributes(attrs))

    def fit(name, *traces):
        work = tmp_path / name
        codec.write_workload(list(traces), work)
        return run(capsys, "fit", str(work), "--components", "1", "--clusters", "1")

    # rank 0 lists ALL_REDUCE first but gates it on a COMP: both ranks issue ALL_GATHER first
    warmup = ETNode(3, "warmup", NodeType.COMP, attributes=make_attributes({"runtime": 10}))
    rank0 = Trace(0, (coll(1, "ALL_REDUCE", "g", (3,)), coll(2, "ALL_GATHER", "g"), warmup))
    rank1 = Trace(1, (coll(1, "ALL_GATHER", "g"), coll(2, "ALL_REDUCE", "g", (1,))))
    code, out, err = fit("issue-order", rank0, rank1)
    assert code == 0 and json.loads(out)["version"] == 1, err

    # each rank waits in one group for the other rank, which waits in the other group
    rank0 = Trace(0, (coll(1, "ALL_REDUCE", "g1"), coll(2, "ALL_GATHER", "g2", (1,))))
    rank1 = Trace(1, (coll(1, "ALL_GATHER", "g2"), coll(2, "ALL_REDUCE", "g1", (1,))))
    code, _, err = fit("circular-wait", rank0, rank1)
    assert code == 2 and "group 'g1'" in err and "Traceback" not in err

    untimed = ETNode(1, "untimed", NodeType.COMP)
    code, _, err = fit("no-runtime", Trace(0, (untimed, coll(2, "ALL_REDUCE", "g", (1,)))))
    assert code == 2 and "node 1: FROM_TRACE compute timing requires a 'runtime'" in err
    code, _, err = run(capsys, "simulate", "--trace-dir", str(tmp_path / "no-runtime"),
                       "--topology", "torus2d:1x1", "--bw", "62e9")
    assert code == 2 and "node 1: FROM_TRACE compute timing requires a 'runtime'" in err


def test_each_command_checks_each_trace_once(tmp_path, capsys, monkeypatch):
    checks = []
    real = validate._find_cycle_members  # runs once per real check, never on a repeat
    monkeypatch.setattr(validate, "_find_cycle_members", lambda nodes: checks.append(1) or real(nodes))

    def count(*argv):
        checks.clear()
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        return len(checks)

    w1, w2, models = tmp_path / "w1", tmp_path / "w2", tmp_path / "models.json"
    assert count("generate", "--preset", "mlp-dp", "--npus", "4", "--out", str(w1)) == 4
    assert count("generate", "--preset", "mlp-mp", "--npus", "4", "--out", str(w2), "--trace-format", "binary") == 4
    assert count("validate", str(w1)) == 4
    assert count("simulate", "--trace-dir", str(w2), "--topology", "torus2d:2x2", "--bw", "62e9",
                 "--chrome", str(tmp_path / "chrome.json")) == 4
    assert count("fit", str(w1), str(w2), "--components", "1", "--output", str(models)) == 8
    assert count("synthesize", "--models", str(models), "--npus", "4", "--num-ops", "6",
                 "--out", str(tmp_path / "synth")) == 4
    assert count("sweep", "--preset", "mlp-dp", "--npus", "4", "--bw", "31e9;62e9;124e9") == 4


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


def test_convert_non_finite_runtime_is_data_error(tmp_path, capsys):
    pt = tmp_path / "graph.json"
    out = tmp_path / "out"
    for dur, extra, message in (
        ("1e999", (), "error: node 1: dur"),
        ("NaN", (), "error: node 1: dur"),
        ("1", ("--cycles-per-us", "-1"), "must be positive and finite, got -1.0"),
        ("1", ("--cycles-per-us", "0"), "must be positive and finite, got 0.0"),
    ):
        pt.write_text('{"nodes": [{"id": 1, "name": "aten::mm", "dur": %s}]}' % dur)
        code, _, err = run(capsys, "convert", str(pt), "--out", str(out), *extra)
        assert code == 2 and message in err and "Traceback" not in err and not out.exists(), (dur, extra, err)


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
                    ["fit", str(work), "--components", "1", "--clusters", "1", "--output", str(tmp_path / "m.json")],
                ):
                    code, _, err = run(capsys, *argv)
                    assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, blob[:32], err)


def test_corrupted_models_never_escape_the_exit_codes(tmp_path, capsys):
    rng = random.Random(7)
    w1 = gen(tmp_path, capsys, "w1")
    w2 = tmp_path / "w2"
    assert run(capsys, "generate", "--preset", "mlp-mp", "--npus", "4", "--out", str(w2))[0] == 0
    models_file = tmp_path / "models.json"
    assert run(capsys, "fit", str(w1), str(w2), "--components", "2", "--output", str(models_file))[0] == 0
    text = models_file.read_text()
    variants = [text[:cut] for cut in (0, 1, len(text) // 3, len(text) // 2, len(text) - 2)]
    for _ in range(40):
        chars = list(text)
        chars[rng.randrange(len(chars))] = rng.choice('0123456789-.eE"{}[],: xnul')
        variants.append("".join(chars))
    doc = json.loads(text)
    for path, replacement in (
        (("version",), "1"),
        (("type_model",), []),
        (("type_model", "clusters"), []),
        (("type_model", "clusters", 0, "weight"), "heavy"),
        (("type_model", "clusters", 0, "lengths"), [0]),
        (("type_model", "clusters", 0, "lengths"), [-3, "x"]),
        (("type_model", "clusters", 0, "type_probs"), {"NOPE": 1.0}),
        (("type_model", "clusters", 0, "type_probs"), {"ALL_REDUCE": "1"}),
        (("type_model", "clusters", 0, "transitions"), {"ALL_REDUCE": {"ALL_REDUCE": None}}),
        (("size_model",), {}),
        (("size_model",), {"ALL_REDUCE": []}),
        (("size_model",), {"ALL_REDUCE": [{"weight": 1.0, "mean": "big", "var": 1.0}]}),
        (("size_model",), {"ALL_REDUCE": [{"weight": -1.0, "mean": 10.0, "var": -1.0}]}),
    ):
        changed = json.loads(text)
        target = changed
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = replacement
        variants.append(json.dumps(changed))
    variants += ["null", "[]", "{}", json.dumps({**doc, "size_model": None}), "\x00" * 8]
    for i, variant in enumerate(variants):
        bad = tmp_path / f"models-{i}.json"
        bad.write_text(variant)
        argv = ["synthesize", "--models", str(bad), "--npus", "4", "--num-ops", "8", "--out", str(tmp_path / f"s{i}")]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err, (i, variant[:80], err)


@pytest.mark.parametrize("fmt", ["json", "binary"])
def test_a_corrupt_kth_trace_file_exits_2_with_its_decode_error(fmt, tmp_path, capsys):
    """The workload is read one file at a time, and a bad file still fails the command before any output."""
    out = gen(tmp_path, capsys, "w", "--trace-format", fmt)
    bad = out / "trace.2.et"
    bad.write_bytes(bad.read_bytes()[:-3])
    with pytest.raises(codec.DecodeError) as info:
        codec.read_trace(bad)
    renamed = gen(tmp_path, capsys, "renamed", "--trace-format", fmt)
    shutil.copy(renamed / "trace.1.et", renamed / "trace.2.et")
    mismatch = f"error: {renamed / 'trace.2.et'}: filename says npu 2 but trace says 1\n"
    for workload, message in ((out, f"error: {info.value}\n"), (renamed, mismatch)):
        timeline = tmp_path / "t.csv"
        simulate = ["simulate", "--trace-dir", str(workload), "--topology", "torus2d:2x2", "--bw", "62e9"]
        for argv in (["validate", str(workload)], [*simulate, "--timeline", str(timeline)]):
            assert run(capsys, *argv) == (2, "", message), argv
        assert not timeline.exists()


def test_a_trace_file_that_is_not_utf8_exits_2_and_names_the_file(tmp_path, capsys):
    out = gen(tmp_path, capsys)
    bad = out / "trace.2.et"
    bad.write_bytes(b"\xff\xfe{}")
    code, stdout, err = run(capsys, "simulate", "--trace-dir", str(out), "--topology", "torus2d:2x2", "--bw", "62e9")
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: {bad}: not valid UTF-8: ") and "Traceback" not in err


@pytest.mark.parametrize("field", ["cluster weights", "size weights"])
def test_synthesize_refuses_models_whose_weights_sum_to_zero(field, tmp_path, capsys):
    models_file = tmp_path / "models.json"
    assert run(capsys, "fit", str(gen(tmp_path, capsys)), "--components", "2", "--output", str(models_file))[0] == 0
    doc = json.loads(models_file.read_text())
    if field == "cluster weights":
        for cluster in doc["type_model"]["clusters"]:
            cluster["weight"] = 0
    else:
        for component in doc["size_model"][min(doc["size_model"])]:
            component["weight"] = 0.0
    models_file.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning, such as numpy's for 0 / 0, raises here
        code, _, err = run(capsys, "synthesize", "--models", str(models_file), "--npus", "4", "--num-ops", "8",
                           "--out", str(tmp_path / "s"))
    assert code == 2 and err.startswith(f"error: models document: {field}") and "sum to 0" in err, err
    assert "Warning" not in err and not (tmp_path / "s").exists()


def test_main_pauses_the_collector_while_a_command_runs(tmp_path, capsys, monkeypatch):
    w = gen(tmp_path, capsys)
    b0, b1 = TraceBuilder(0), TraceBuilder(1)
    b0.coll("B", CommType.ALL_GATHER, 64, "g", parents=[b0.coll("A", CommType.ALL_REDUCE, 64, "g")])
    b1.coll("A", CommType.ALL_REDUCE, 64, "g", parents=[b1.coll("B", CommType.ALL_GATHER, 64, "g")])
    deadlocked = tmp_path / "deadlocked"
    codec.write_workload([b0.build(), b1.build()], deadlocked)
    during = []
    iter_workload = codec.iter_workload
    monkeypatch.setattr(codec, "iter_workload", lambda *a, **k: during.append(gc.isenabled()) or iter_workload(*a, **k))
    simulate = ["simulate", "--topology", "torus2d:2x2", "--bw", "62e9", "--trace-dir"]
    outcomes = [
        (0, ["validate", str(w)]),
        (2, [*simulate, str(tmp_path / "missing")]),
        (3, [*simulate, str(deadlocked)]),
        (1, ["frobnicate"]),  # refused by the parser
        (1, ["convert", str(tmp_path / "trace.txt"), "--out", str(tmp_path / "c")]),  # refused inside the command
    ]
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            for expected, argv in outcomes:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                capsys.readouterr()
                assert code == expected and gc.isenabled() is enabled, (argv, code)
    finally:
        gc.enable()
    assert during == [False] * 6  # validate, and the two simulates that read a directory, twice
