"""Execution-trace toolkit: schema, codecs, converters, replay, and synthesis.

Traces are per-NPU dependency DAGs of compute, memory, and communication
nodes. The package covers the full loop: capture-format conversion, canonical
JSON/binary encodings, dependency-resolved feeding, discrete-event replay
against analytic network cost models, workload generation, visualization, and
statistical synthesis of new workloads from fitted models.

``synth`` (which needs numpy) and ``convert`` load on first access, so a
process that only replays traces never imports them.
"""
import importlib as _importlib

from .builder import DependencyCycleError, TraceBuilder
from .codec import (
    DecodeError,
    FORMAT_BINARY,
    FORMAT_JSON,
    decode_trace,
    encode_trace,
    read_trace,
    read_workload,
    trace_from_binary,
    trace_from_json,
    trace_to_binary,
    trace_to_json,
    write_trace,
    write_workload,
)
from .costmodel import (
    Topology,
    TopologyKind,
    all_gather_time,
    all_reduce_time,
    all_to_all_time,
    collective_time,
    hierarchical_all_reduce_time,
    p2p_time,
    parse_topology,
    reduce_scatter_time,
)
from .feeder import Feeder, FeederError
from .schema import (
    Attribute,
    AttributeKind,
    CommType,
    ETNode,
    NodeType,
    Trace,
    get_attr,
    make_attributes,
)
from .simulator import (
    DeadlockError,
    SimConfig,
    SimResult,
    TimingMode,
    compute_breakdown,
    run_simulation,
    sweep_bandwidth,
    sweep_npus,
    sweep_rows_to_csv,
)
from .validate import InvalidTraceError, ValidationReport, validate_trace, validate_workload
from .viz import emit_dot, emit_timeline_csv, parse_timeline_csv, timeline_to_chrome_trace
from .workloads import Parallelism, WorkloadSpec, generate_workload, preset_spec

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeKind",
    "CommType",
    "ConvertError",
    "DecodeError",
    "DeadlockError",
    "DependencyCycleError",
    "DotParseError",
    "ETNode",
    "FORMAT_BINARY",
    "FORMAT_JSON",
    "Feeder",
    "FeederError",
    "FittedModels",
    "InvalidTraceError",
    "MasterTrace",
    "MergeConflictError",
    "NodeType",
    "Parallelism",
    "SimConfig",
    "SimResult",
    "SynthConfig",
    "Topology",
    "TopologyKind",
    "Trace",
    "TraceBuilder",
    "TimingMode",
    "ValidationReport",
    "WorkloadSpec",
    "all_gather_time",
    "all_reduce_time",
    "all_to_all_time",
    "build_master_trace",
    "collective_time",
    "compute_breakdown",
    "convert_flexflow",
    "convert_pytorch_json",
    "decode_trace",
    "emit_dot",
    "emit_timeline_csv",
    "encode_trace",
    "fit_gmm",
    "fit_models",
    "generate_workload",
    "get_attr",
    "hierarchical_all_reduce_time",
    "p2p_time",
    "make_attributes",
    "models_from_json",
    "models_to_json",
    "parse_timeline_csv",
    "parse_topology",
    "preset_spec",
    "read_trace",
    "read_workload",
    "reconstruct_rank_traces",
    "reduce_scatter_time",
    "run_simulation",
    "sweep_bandwidth",
    "sweep_npus",
    "sweep_rows_to_csv",
    "synthesize",
    "timeline_to_chrome_trace",
    "trace_from_binary",
    "trace_from_json",
    "trace_to_binary",
    "trace_to_json",
    "validate_trace",
    "validate_workload",
    "write_trace",
    "write_workload",
]

# Lazy name -> the submodule that defines it. A submodule loads on the first
# access of itself or of any name it re-exports here.
_LAZY = {
    name: module
    for module, names in {
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
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    # import_module, not ``from . import``: the latter looks the name up on this
    # package first, which calls back into this function.
    value = _importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> "list[str]":
    return sorted(set(globals()) | set(_LAZY))
