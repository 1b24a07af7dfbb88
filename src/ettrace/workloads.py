"""Synthetic multi-NPU training workloads.

Generates per-NPU traces for a layered MLP-style model under the classic
parallelization schemes. Sizes and cycle counts are plain knobs on
``WorkloadSpec``; the preset factories below pin values chosen so the
scaling/bandwidth experiments show their characteristic shapes.

Conventions:
* ``compute_cycles`` is one layer's forward pass on one NPU when the layer is
  not partitioned; the backward pass of a layer costs the same again.
* Model-parallel schemes divide per-layer compute by the MP degree and
  all-reduce activations; data-parallel schemes keep full compute and
  all-reduce gradients (``weight_bytes`` per layer, sharded under hybrid MP).
* A collective over a single rank is elided entirely.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .builder import TraceBuilder
from .costmodel import near_square_dims
from .schema import CommType, Trace

MIB = 1024 * 1024


class Parallelism(Enum):
    DP = "dp"
    MP = "mp"
    DP_MP = "dp_mp"
    MP_DP = "mp_dp"
    PIPELINE = "pipeline"


DP_STYLE_ALLREDUCE = "allreduce"
DP_STYLE_ZERO2 = "zero2"  # reduce-scatter grads + all-gather params


@dataclass(frozen=True)
class WorkloadSpec:
    npus: int
    parallelism: Parallelism
    layers: int = 6
    dims: "tuple[int, int] | None" = None  # (d1, d2) for hybrid schemes
    compute_cycles: int = 1_000_000
    weight_bytes: int = 16 * MIB
    activation_bytes: int = 64 * MIB
    microbatches: int = 4  # PIPELINE only
    dp_style: str = DP_STYLE_ALLREDUCE
    embedding_layers: int = 0  # leading layers exchanged all-to-all (DP only)
    name: str = ""

    def resolved_dims(self) -> tuple[int, int]:
        dims = self.dims if self.dims is not None else near_square_dims(self.npus)
        return dims

    def check(self) -> None:
        if self.npus < 1:
            raise ValueError(f"npus must be >= 1, got {self.npus}")
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.compute_cycles < 1:
            raise ValueError("compute_cycles must be >= 1")
        if self.weight_bytes < 0 or self.activation_bytes < 0:
            raise ValueError("byte sizes must be >= 0")
        if self.dp_style not in (DP_STYLE_ALLREDUCE, DP_STYLE_ZERO2):
            raise ValueError(f"unknown dp_style {self.dp_style!r}")
        if self.parallelism in (Parallelism.DP_MP, Parallelism.MP_DP):
            d1, d2 = self.resolved_dims()
            if d1 < 1 or d2 < 1 or d1 * d2 != self.npus:
                raise ValueError(f"dims {d1}x{d2} do not factor npus={self.npus}")
        if self.parallelism is Parallelism.PIPELINE and self.microbatches < 1:
            raise ValueError("microbatches must be >= 1")
        if self.embedding_layers:
            if self.parallelism is not Parallelism.DP:
                raise ValueError("embedding_layers only applies to DP workloads")
            if not 0 <= self.embedding_layers <= self.layers:
                raise ValueError("embedding_layers must be within [0, layers]")


def _cycles(total: int, divisor: int) -> int:
    return max(1, round(total / divisor))


def generate_workload(spec: WorkloadSpec) -> list[Trace]:
    """Per-NPU traces realizing the requested parallelization scheme."""
    spec.check()
    if spec.parallelism is Parallelism.PIPELINE:
        return _gen_pipeline(spec)
    return _gen_layered(spec)


# --------------------------------------------------------------------------
# Layered schemes: DP, MP and the two hybrids
# --------------------------------------------------------------------------


# A backward layer's gradient sync per dp_style: (comm type, name stem) steps,
# the first hanging off the layer's compute node and each later one off the last.
_GRAD_SYNC = {
    DP_STYLE_ALLREDUCE: ((CommType.ALL_REDUCE, "grad_allreduce"),),
    DP_STYLE_ZERO2: ((CommType.REDUCE_SCATTER, "grad_reducescatter"), (CommType.ALL_GATHER, "param_allgather")),
}


def _gen_layered(spec: WorkloadSpec) -> list[Trace]:
    """A forward chain of layers, then a backward one, on every rank.

    Each layer is a compute node chained to the one before, then an
    activation all-reduce in the rank's MP group, chained too. A backward
    layer's gradient sync in the rank's DP group hangs off its compute node,
    so later layers' backward compute may overlap it. DP_MP is data parallel
    along dim 1 and model parallel along dim 2; MP_DP is the reverse. DP's
    leading embedding layers run sharded over all ranks, exchange activations
    all-to-all and sync no gradient.
    """
    npus = spec.npus
    if spec.parallelism in (Parallelism.DP_MP, Parallelism.MP_DP):
        d1, d2 = spec.resolved_dims()
        if spec.parallelism is Parallelism.DP_MP:
            mp = d2
            groups = [(f"mp_col{r % d1}", f"dp_row{r // d1}") for r in range(npus)]
        else:
            mp = d1
            groups = [(f"mp_row{r // d1}", f"dp_col{r % d1}") for r in range(npus)]
        # Weights are sharded across the MP partitions, so each rank syncs
        # 1/mp of every layer's gradient in its DP group.
        grad_bytes = max(1, spec.weight_bytes // mp)
        grad_steps = _GRAD_SYNC[spec.dp_style]
    else:
        # DP all-reduces whole gradients whatever dp_style says; MP has none.
        mp = 1 if spec.parallelism is Parallelism.DP else npus
        groups = [("mp", "dp")] * npus
        grad_bytes, grad_steps = spec.weight_bytes, _GRAD_SYNC[DP_STYLE_ALLREDUCE]

    # (name infix, cycles, activation collective, its name, whether it runs,
    # whether the layer syncs gradients) per layer
    dense = ("", _cycles(spec.compute_cycles, mp), CommType.ALL_REDUCE, "act_allreduce", mp > 1, npus > mp)
    emb = ("emb_", _cycles(spec.compute_cycles, npus), CommType.ALL_TO_ALL, "a2a", npus > 1, False)
    layers = range(1, spec.layers + 1)
    passes = [("fwd", layer) for layer in layers] + [("bwd", layer) for layer in reversed(layers)]
    shape = {layer: emb if layer <= spec.embedding_layers else dense for layer in layers}

    traces = []
    for rank, (mp_group, dp_group) in enumerate(groups):
        b = TraceBuilder(rank)
        prev = None
        for phase, layer in passes:
            infix, cycles, act_type, act_name, exchange, grad_sync = shape[layer]
            node = b.comp(f"{phase}_{infix}l{layer}", cycles, parents=() if prev is None else (prev,))
            prev = node
            if exchange:
                prev = b.coll(
                    f"{phase}_{act_name}_l{layer}",
                    act_type,
                    spec.activation_bytes,
                    mp_group,
                    parents=[node],
                )
            if phase == "bwd" and grad_sync:
                step = node
                for comm_type, stem in grad_steps:
                    step = b.coll(f"{stem}_l{layer}", comm_type, grad_bytes, dp_group, parents=[step])
        traces.append(b.build())
    return traces


# --------------------------------------------------------------------------
# Pipeline
# --------------------------------------------------------------------------


def _stage_layers(layers: int, stages: int) -> list[int]:
    base, extra = divmod(layers, stages)
    return [base + (1 if s < extra else 0) for s in range(stages)]


def _fwd_tag(m: int, sender: int, stages: int) -> int:
    return (m * stages + sender) * 2


def _bwd_tag(m: int, sender: int, stages: int) -> int:
    return (m * stages + sender) * 2 + 1


def _gen_pipeline(spec: WorkloadSpec) -> list[Trace]:
    stages = spec.npus
    per_stage = _stage_layers(spec.layers, stages)
    traces = []
    for s in range(stages):
        b = TraceBuilder(s)
        cycles = max(1, per_stage[s] * spec.compute_cycles)
        fwd: dict[int, int] = {}
        bwd_prev = None
        for m in range(spec.microbatches):
            parents = []
            if s > 0:
                # Chain each recv behind the previous microbatch's forward so
                # recvs enter the (single) network resource queue in pipeline
                # order instead of all at cycle 0, which would deadlock the
                # rendezvous with the other side's sends.
                recv = b.recv(
                    f"recv_act_m{m}",
                    spec.activation_bytes,
                    s - 1,
                    parents=[fwd[m - 1]] if m > 0 else [],
                    tag=_fwd_tag(m, s - 1, stages),
                )
                parents.append(recv)
            if m > 0:
                parents.append(fwd[m - 1])
            fwd[m] = b.comp(f"fwd_m{m}", cycles, parents=parents)
            if s < stages - 1:
                b.send(f"send_act_m{m}", spec.activation_bytes, s + 1, parents=[fwd[m]], tag=_fwd_tag(m, s, stages))
        for m in range(spec.microbatches):
            parents = [fwd[spec.microbatches - 1]]
            if s < stages - 1:
                recv = b.recv(
                    f"recv_grad_m{m}",
                    spec.activation_bytes,
                    s + 1,
                    parents=[bwd_prev] if bwd_prev is not None else [fwd[spec.microbatches - 1]],
                    tag=_bwd_tag(m, s + 1, stages),
                )
                parents.append(recv)
            else:
                parents.append(fwd[m])
            if bwd_prev is not None:
                parents.append(bwd_prev)
            bwd = b.comp(f"bwd_m{m}", cycles, parents=sorted(set(parents)))
            bwd_prev = bwd
            if s > 0:
                b.send(f"send_grad_m{m}", spec.activation_bytes, s - 1, parents=[bwd], tag=_bwd_tag(m, s, stages))
        traces.append(b.build())
    return traces


# --------------------------------------------------------------------------
# Presets
# --------------------------------------------------------------------------

# Reference fabric the presets are calibrated against.
REFERENCE_BANDWIDTH = 62e9  # bytes/sec per link
CYCLE_TIME = 1e-9  # seconds per cycle at the default simulator clock

TRANSFORMER_COMPUTE_TO_COMM = 25.0


def mlp_dp_spec(npus: int) -> WorkloadSpec:
    return WorkloadSpec(npus=npus, parallelism=Parallelism.DP, name="mlp-dp")


def mlp_mp_spec(npus: int) -> WorkloadSpec:
    return WorkloadSpec(npus=npus, parallelism=Parallelism.MP, name="mlp-mp")


def mlp_hybrid_spec(npus: int) -> WorkloadSpec:
    return WorkloadSpec(npus=npus, parallelism=Parallelism.DP_MP, name="mlp-hybrid")


def transformer_spec(npus: int) -> WorkloadSpec:
    """Transformer-like hybrid: MP along dim 1, ZeRO-2-style DP along dim 2.

    Total compute is fixed by construction so that, at the 4-NPU reference
    fabric, per-rank compute time is ``TRANSFORMER_COMPUTE_TO_COMM`` times
    per-rank communication time. Growing the fabric then shrinks per-rank
    compute (strong scaling) while communication per rank stays flat-ish.
    """
    layers = 6
    act = 4 * MIB
    weight = 32 * MIB
    mp_anchor = 2  # near_square_dims(4) -> (2, 2)
    grad_shard = weight // mp_anchor
    # Per-layer comm at the anchor: two activation all-reduces over 2 ranks
    # (each S/B) plus reduce-scatter + all-gather of the gradient shard over
    # 2 ranks (each S/(2B)).
    per_layer_comm_s = (2 * act + grad_shard) / REFERENCE_BANDWIDTH
    total_comm_s = layers * per_layer_comm_s
    # Per-rank compute at the anchor is layers * (compute_cycles / mp) * 2
    # node executions; solve for compute_cycles.
    compute_cycles = round(
        TRANSFORMER_COMPUTE_TO_COMM * total_comm_s * mp_anchor / (2 * layers * CYCLE_TIME)
    )
    return WorkloadSpec(
        npus=npus,
        parallelism=Parallelism.MP_DP,
        layers=layers,
        compute_cycles=compute_cycles,
        weight_bytes=weight,
        activation_bytes=act,
        dp_style=DP_STYLE_ZERO2,
        name="transformer",
    )


def dlrm_spec(npus: int) -> WorkloadSpec:
    """DLRM-like: all-to-all embedding exchange up front, data-parallel MLP."""
    return WorkloadSpec(
        npus=npus,
        parallelism=Parallelism.DP,
        layers=6,
        compute_cycles=3_000_000,
        weight_bytes=16 * MIB,
        activation_bytes=8 * MIB,
        embedding_layers=2,
        name="dlrm",
    )


PRESETS: "dict[str, object]" = {
    "mlp-dp": mlp_dp_spec,
    "mlp-mp": mlp_mp_spec,
    "mlp-hybrid": mlp_hybrid_spec,
    "transformer": transformer_spec,
    "dlrm": dlrm_spec,
}


def preset_spec(name: str, npus: int) -> WorkloadSpec:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(npus)  # type: ignore[operator]
