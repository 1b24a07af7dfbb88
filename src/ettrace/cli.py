"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 simulated deadlock.
Results go to stdout (or ``--output``); diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import gc
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator

# convert and synth (numpy) load inside the commands that use them, so the
# other commands never pay for their import.
from . import codec, simulator, validate, viz, workloads
from .costmodel import Topology, TopologyKind, dim_pair, parse_topology
from .workloads import Parallelism, WorkloadSpec


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; reserve 2 for data errors.
    def error(self, message: str):  # noqa: D102 - argparse override
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_output(text: str, output: "str | None") -> None:
    if output and output != "-":
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _write_chunks(path: str, chunks: Iterator[str]) -> None:
    """Write ``chunks`` to ``path`` as they come, a few thousand to a write."""
    with open(path, "w") as out:
        out.writelines(iter(lambda: "".join(islice(chunks, 4096)), ""))


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_ints(text: str, flag: str, parser: _Parser) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        parser.error(f"{flag} expects comma-separated integers, got {text!r}")
    if not values:
        parser.error(f"{flag} expects at least one integer")
    return values


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _cmd_convert(args, parser: _Parser) -> int:
    from . import convert

    path = Path(args.input)
    fmt = args.format
    if fmt is None:
        fmt = {"json": "pytorch", "dot": "flexflow"}.get(path.suffix.lstrip("."))
    if fmt is None:
        parser.error(f"cannot infer --format from {path.name!r}; pass --format")
    text = path.read_text()
    if fmt == "pytorch":
        traces = convert.convert_pytorch_json(text, cycles_per_us=args.cycles_per_us)
    else:
        traces = convert.convert_flexflow(text)
    paths = codec.write_workload(traces, args.out, prefix=args.prefix, fmt=args.trace_format)
    _info(f"wrote {len(paths)} trace(s) to {args.out}")
    return 0


def _cmd_validate(args, parser: _Parser) -> int:
    reports = []
    for raw in args.paths:
        path = Path(raw)
        if path.is_dir():
            reports.append((str(path), validate.validate_workload(codec.iter_workload(path, prefix=args.prefix))))
        else:
            trace = codec.read_trace(path)
            reports.append((str(path), validate.validate_trace(trace)))
    bad = False
    for name, report in reports:
        if report.ok:
            print(f"{name}: OK")
        else:
            bad = True
            for violation in report.violations:
                print(f"{name}: {violation}", file=sys.stderr)
    return 2 if bad else 0


def _cmd_visualize(args, parser: _Parser) -> int:
    trace = codec.read_trace(args.trace)
    _write_output(viz.emit_dot(trace), args.output)
    return 0


def _cmd_timeline(args, parser: _Parser) -> int:
    with open(args.csv, newline="") as csv:  # keep a "\r" in a node name
        rows = viz.parse_timeline_csv(csv.read())
    type_of = viz.node_type_lookup(codec.iter_workload(args.trace_dir, prefix=args.prefix))
    _write_output(viz.timeline_to_chrome_trace(rows, type_of), args.output)
    return 0


def _cmd_generate(args, parser: _Parser) -> int:
    if args.preset:
        spec = workloads.preset_spec(args.preset, args.npus)
    elif args.parallelism:
        dims = None
        if args.dims:
            d = _parse_ints(args.dims.replace("x", ","), "--dims", parser)
            if len(d) != 2:
                parser.error("--dims expects <d1>x<d2>")
            dims = (d[0], d[1])
        spec = WorkloadSpec(
            npus=args.npus,
            parallelism=Parallelism(args.parallelism),
            layers=args.layers,
            dims=dims,
            compute_cycles=args.compute_cycles,
            weight_bytes=args.weight_bytes,
            activation_bytes=args.activation_bytes,
            microbatches=args.microbatches,
            dp_style=args.dp_style,
            embedding_layers=args.embedding_layers,
        )
    else:
        parser.error("pass --preset or --parallelism")
    traces = workloads.generate_workload(spec)
    paths = codec.write_workload(traces, args.out, prefix=args.prefix, fmt=args.trace_format)
    _info(f"wrote {len(paths)} trace(s) to {args.out}")
    return 0


def _cmd_simulate(args, parser: _Parser) -> int:
    try:
        topo = parse_topology(args.topology, args.bw, args.lat or 0.0)
    except ValueError as exc:
        parser.error(str(exc))
    cfg = simulator.SimConfig(
        topology=topo,
        compute_timing=simulator.TimingMode(args.compute_timing),
        comm_timing=simulator.TimingMode(args.comm_timing),
        cycle_time=args.cycle_time,
        compute_rate=args.compute_rate,
    )
    result = simulator.run_simulation(codec.iter_workload(args.trace_dir, prefix=args.prefix), cfg)
    if args.timeline:
        _write_chunks(args.timeline, viz.timeline_csv_lines(result.rows()))
        _info(f"wrote timeline to {args.timeline}")
    if args.chrome:
        _write_chunks(args.chrome, viz.chrome_trace_chunks(result.rows(), result.lane))
        _info(f"wrote chrome trace to {args.chrome}")
    lines = ["npu_id,compute_busy,comm_busy,mem_busy,exposed_comm"]
    for npu_id in sorted(result.per_npu):
        s = result.per_npu[npu_id]
        lines.append(f"{npu_id},{s.compute_busy},{s.comm_busy},{s.mem_busy},{s.exposed_comm}")
    summary = f"makespan_cycles,{result.makespan}\n" + "\n".join(lines) + "\n"
    _write_output(summary, args.output)
    return 0


def _cmd_sweep(args, parser: _Parser) -> int:
    npus = _parse_ints(args.npus, "--npus", parser)
    try:
        bws = [dim_pair(cell, "--bw") for cell in args.bw.split(";") if cell.strip()]
        for bw1, bw2 in bws:  # each cell's link must pass before any replay
            Topology(args.kind, 1, 1, bw1, bw2)
    except ValueError as exc:
        parser.error(str(exc))
    if not bws:
        parser.error("--bw expects at least one bandwidth")
    if len(npus) > 1 and len(bws) > 1:
        parser.error("sweep either --npus or --bw, not both")
    if len(npus) > 1:
        rows = simulator.sweep_npus(args.preset, npus, args.kind, bws[0], cycle_time=args.cycle_time)
    else:
        rows = simulator.sweep_bandwidth(args.preset, npus[0], args.kind, bws, cycle_time=args.cycle_time)
    _write_output(simulator.sweep_rows_to_csv(rows), args.output)
    return 0


def _cmd_fit(args, parser: _Parser) -> int:
    from . import synth

    def corpus():  # read lazily: fit_models checks its counts first
        for raw in args.trace_dirs:
            traces = codec.read_workload(raw, prefix=args.prefix)
            report = validate.validate_workload(traces)
            if not report.ok:
                raise validate.InvalidTraceError(report, f"{raw}: workload failed validation")
            yield synth.build_master_trace(traces)

    models = synth.fit_models(
        corpus(), k_components=args.components, n_clusters=args.clusters, seed=args.seed
    )
    _write_output(synth.models_to_json(models), args.output)
    return 0


def _cmd_synthesize(args, parser: _Parser) -> int:
    from . import synth

    models = synth.models_from_json(Path(args.models).read_text())
    cfg = synth.SynthConfig(
        npus=args.npus,
        seed=args.seed,
        num_ops=args.num_ops,
        split_jitter=args.jitter,
        comm_group=args.group,
    )
    traces = synth.synthesize(models, cfg)
    paths = codec.write_workload(traces, args.out, prefix=args.prefix, fmt=args.trace_format)
    _info(f"wrote {len(paths)} trace(s) to {args.out}")
    return 0


# --------------------------------------------------------------------------
# Parser wiring
# --------------------------------------------------------------------------


def _add_prefix(p: _Parser) -> None:
    p.add_argument("--prefix", default="trace", help="trace filename prefix (default: trace)")


def _add_trace_format(p: _Parser) -> None:
    p.add_argument(
        "--trace-format",
        choices=[codec.FORMAT_JSON, codec.FORMAT_BINARY],
        default=codec.FORMAT_JSON,
        help="on-disk trace encoding (default: json)",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="ettrace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a foreign trace into per-NPU traces")
    p.add_argument("input", help="pytorch JSON or flexflow DOT file")
    p.add_argument("--format", choices=["pytorch", "flexflow"], help="input dialect")
    p.add_argument("--cycles-per-us", type=float, default=1.0, help="pytorch dur scaling")
    p.add_argument("--out", required=True, help="output workload directory")
    _add_prefix(p)
    _add_trace_format(p)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("validate", help="validate trace files or workload directories")
    p.add_argument("paths", nargs="+", help=".et files or workload directories")
    _add_prefix(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("visualize", help="render one trace as Graphviz DOT")
    p.add_argument("trace", help=".et trace file")
    p.add_argument("--output", help="write DOT here instead of stdout")
    p.set_defaults(func=_cmd_visualize)

    p = sub.add_parser("timeline", help="convert a timeline CSV to Chrome trace JSON")
    p.add_argument("csv", help="timeline CSV from the simulator")
    p.add_argument("--trace-dir", required=True, help="workload the timeline came from")
    p.add_argument("--output", help="write JSON here instead of stdout")
    _add_prefix(p)
    p.set_defaults(func=_cmd_timeline)

    p = sub.add_parser("generate", help="generate a synthetic training workload")
    p.add_argument("--preset", choices=sorted(workloads.PRESETS), help="named workload")
    p.add_argument(
        "--parallelism", choices=[m.value for m in Parallelism], help="custom scheme"
    )
    p.add_argument("--npus", type=int, required=True)
    p.add_argument("--layers", type=int, default=6)
    p.add_argument("--dims", help="hybrid grid as <d1>x<d2>")
    p.add_argument("--compute-cycles", type=int, default=1_000_000)
    p.add_argument("--weight-bytes", type=int, default=16 * workloads.MIB)
    p.add_argument("--activation-bytes", type=int, default=64 * workloads.MIB)
    p.add_argument("--microbatches", type=int, default=4)
    p.add_argument(
        "--dp-style",
        choices=[workloads.DP_STYLE_ALLREDUCE, workloads.DP_STYLE_ZERO2],
        default=workloads.DP_STYLE_ALLREDUCE,
    )
    p.add_argument("--embedding-layers", type=int, default=0)
    p.add_argument("--out", required=True, help="output workload directory")
    _add_prefix(p)
    _add_trace_format(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="replay a workload on a modeled platform")
    p.add_argument("--trace-dir", required=True)
    p.add_argument("--topology", required=True, help="torus2d:<d1>x<d2> or switch2lvl:<d1>x<d2>")
    p.add_argument("--bw", required=True, help="link bandwidth bytes/sec, one value or dim1,dim2")
    p.add_argument("--lat", help="link latency seconds, one value or dim1,dim2")
    p.add_argument(
        "--compute-timing",
        choices=[m.value for m in simulator.TimingMode],
        default=simulator.TimingMode.FROM_TRACE.value,
    )
    p.add_argument(
        "--comm-timing",
        choices=[m.value for m in simulator.TimingMode],
        default=simulator.TimingMode.MODEL.value,
    )
    p.add_argument("--cycle-time", type=float, default=1e-9, help="seconds per cycle")
    p.add_argument("--compute-rate", type=float, help="ops/sec for modeled compute")
    p.add_argument("--timeline", help="write issue/callback CSV here")
    p.add_argument("--chrome", help="write Chrome trace JSON here")
    p.add_argument("--output", help="write the summary here instead of stdout")
    _add_prefix(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="sweep a preset over NPU counts or bandwidths")
    p.add_argument("--preset", required=True, choices=sorted(workloads.PRESETS))
    p.add_argument("--kind", choices=[k.value for k in TopologyKind], default="torus2d")
    p.add_argument("--npus", required=True, help="comma-separated NPU counts")
    p.add_argument(
        "--bw",
        required=True,
        help="bandwidth cells separated by ';', each one value or dim1,dim2",
    )
    p.add_argument("--cycle-time", type=float, default=1e-9)
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fit", help="fit synthesis models on workload directories")
    p.add_argument("trace_dirs", nargs="+", help="one workload directory per training job")
    p.add_argument("--components", type=int, default=3, help="GMM components per comm type")
    p.add_argument("--clusters", type=int, default=2, help="composition clusters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="write models JSON here instead of stdout")
    _add_prefix(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("synthesize", help="sample a workload from fitted models")
    p.add_argument("--models", required=True, help="models JSON from 'fit'")
    p.add_argument("--npus", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-ops", type=int, help="override the sampled op count")
    p.add_argument("--jitter", type=float, default=0.1, help="per-rank size split jitter")
    p.add_argument("--group", default="g0", help="communicator name for synthesized ops")
    p.add_argument("--out", required=True, help="output workload directory")
    _add_prefix(p)
    _add_trace_format(p)
    p.set_defaults(func=_cmd_synthesize)

    return parser


# Every ettrace data error (decode, convert, validation, merge, timeline,
# dependency cycle) subclasses ValueError.
_DATA_ERRORS = (ValueError, OSError)


def main(argv: "list[str] | None" = None) -> int:
    """Run one command, with the cyclic collector paused: a command frees almost all of the
    hundreds of thousands of containers it allocates by reference count, so collections reclaim little."""
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args, parser)
    except simulator.DeadlockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
