"""How the modules depend on each other.

numpy and the converters load only for the commands that use them; each such
check runs in a fresh interpreter, because the test process itself has long
since imported every module. Validation, the feeder and replay share one
dependency graph.
"""
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAZY_NAMES = {
    "convert": ("ConvertError", "DotParseError", "convert_flexflow", "convert_pytorch_json"),
    "synth": (
        "FittedModels",
        "MasterTrace",
        "MergeConflictError",
        "SynthConfig",
        "build_master_trace",
        "fit_gmm",
        "fit_models",
        "models_from_json",
        "models_to_json",
        "reconstruct_rank_traces",
        "synthesize",
    ),
}


def run_fresh(code: str, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_replay_commands_never_load_numpy_or_the_converters(tmp_path):
    code = """
import sys

def loaded(step):
    found = [m for m in ("numpy", "ettrace.synth", "ettrace.convert") if m in sys.modules]
    assert not found, f"{step} loaded {found}"

import ettrace
loaded("import ettrace")
import ettrace.cli
loaded("import ettrace.cli")
for argv in (
    ["generate", "--preset", "mlp-hybrid", "--npus", "4", "--out", "w"],
    ["validate", "w"],
    ["simulate", "--trace-dir", "w", "--topology", "torus2d:2x2", "--bw", "62e9", "--output", "s.csv",
     "--timeline", "t.csv", "--chrome", "c.json"],
):
    assert ettrace.cli.main(argv) == 0, argv
    loaded(argv[0])
"""
    run_fresh(code, tmp_path)
    assert (tmp_path / "s.csv").read_text().startswith("makespan_cycles,")


def test_every_exported_name_is_the_object_its_module_defines(tmp_path):
    code = f"""
import sys
import ettrace

LAZY_NAMES = {LAZY_NAMES!r}
exported = set(ettrace.__all__)
SUBMODULES = {{"builder", "codec", "convert", "costmodel", "feeder", "schema", "simulator", "synth",
              "validate", "viz", "workloads"}}
public = {{name for name in dir(ettrace) if not name.startswith("_")}}
assert public == exported | SUBMODULES, public ^ (exported | SUBMODULES)
for module, names in LAZY_NAMES.items():
    assert set(names) <= exported, names
    first = getattr(ettrace, names[-1])  # resolves before its module has loaded
    loaded = sys.modules[f"ettrace.{{module}}"]
    assert getattr(ettrace, module) is loaded
    assert first is getattr(loaded, names[-1])
    for name in names:
        assert getattr(ettrace, name) is getattr(loaded, name), name
submodules = [m for n, m in sys.modules.items() if n.startswith("ettrace.")]
for name in exported:
    value = getattr(ettrace, name)
    assert any(getattr(m, name, None) is value for m in submodules), name

namespace = {{}}
exec("from ettrace import *", namespace)
del namespace["__builtins__"]
assert set(namespace) == exported, set(namespace) ^ exported
assert all(namespace[name] is getattr(ettrace, name) for name in exported)

try:
    ettrace.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc), exc
else:
    raise AssertionError("ettrace.no_such_name resolved")
assert not hasattr(ettrace, "no_such_name")
"""
    run_fresh(code, tmp_path)


def test_validation_the_feeder_and_replay_share_one_dependency_graph(monkeypatch):
    """``validate``, ``feeder`` and ``simulator`` build every graph through
    ``schema.dependency_graph``; ``feeder`` and ``simulator`` seed it and
    complete nodes through ``feeder.seed`` and ``feeder.release``. A module
    that tracked dependencies its own way would miss a call here."""
    from ettrace import feeder, schema, simulator, validate
    from ettrace.costmodel import parse_topology
    from ettrace.workloads import generate_workload, preset_spec

    traces = generate_workload(preset_spec("mlp-hybrid", 4))
    calls = []

    def counted(module, name, shared):
        assert getattr(module, name) is shared, f"{module.__name__}.{name} is its own"

        def call(*args):
            calls.append((module.__name__, name))
            return shared(*args)

        monkeypatch.setattr(module, name, call)

    seed, release = feeder.seed, feeder.release
    for module in (validate, feeder, simulator):
        counted(module, "dependency_graph", schema.dependency_graph)
    for module in (feeder, simulator):
        counted(module, "seed", seed)
        counted(module, "release", release)

    assert validate.validate_trace(dataclasses.replace(traces[0])).ok  # a copy, not marked as checked
    assert set(calls) == {("ettrace.validate", "dependency_graph")}
    feed = feeder.Feeder(traces[0])
    while feed.has_nodes_to_issue():
        feed.free_children_nodes(feed.get_next_issuable_node().id)
    assert feed.pending_count() == 0
    config = simulator.SimConfig(topology=parse_topology("torus2d:2x2", 62e9, 1e-6))
    simulator.run_simulation(traces, config, collect_timeline=False)
    names = ("dependency_graph", "seed", "release")
    shared = {(f"ettrace.{module}", name) for module in ("feeder", "simulator") for name in names}
    assert set(calls) == {("ettrace.validate", "dependency_graph")} | shared
