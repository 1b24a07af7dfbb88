"""Analytical timing for communication on simple two-dimensional fabrics.

All times are seconds; sizes are bytes; bandwidths are bytes/second. Every
flat collective is priced by one ring closed form, ``collective_time_flat``:
a collective over one member is free, and every other cost is linear in
payload over the bottleneck link plus a latency term. One rule, ``_check_args``,
checks every payload, group size and link, those of a ``Topology`` included.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

from .schema import CommType

HIERARCHICAL = "hierarchical"


class TopologyKind(Enum):
    TORUS_2D = "torus2d"
    SWITCH_2LVL = "switch2lvl"


@dataclass(frozen=True)
class Topology:
    """A d1 x d2 fabric with per-dimension bandwidth and latency.

    For a torus, dim 1 is the ring within a row and dim 2 the ring within a
    column. For a two-level switch, dim 1 is the leaf switch an NPU hangs off
    (d1 endpoints each) and dim 2 the spine connecting the d2 leaves.
    ``kind`` may be given as its text, ``"torus2d"`` or ``"switch2lvl"``.
    """

    kind: TopologyKind
    dim1: int
    dim2: int
    bw1: float
    bw2: float
    lat1: float = 0.0
    lat2: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", TopologyKind(self.kind))
        if self.dim1 < 1 or self.dim2 < 1:
            raise ValueError(f"topology dims must be >= 1, got {self.dim1}x{self.dim2}")
        _check_args(0, 1, self.bw1, self.lat1)
        _check_args(0, 1, self.bw2, self.lat2)

    @property
    def npus(self) -> int:
        return self.dim1 * self.dim2

    def coords(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.npus:
            raise ValueError(f"rank {rank} outside 0..{self.npus - 1}")
        return rank % self.dim1, rank // self.dim1

    def bw_lat(self, dim: int) -> tuple[float, float]:
        if dim == 1:
            return self.bw1, self.lat1
        if dim == 2:
            return self.bw2, self.lat2
        raise ValueError(f"dimension must be 1 or 2, got {dim}")


def dim_pair(value: "float | str | tuple[float, ...] | list[float]", what: str) -> tuple[float, float]:
    """Per-dimension (dim 1, dim 2) values: one value applies to both dims.

    ``value`` is one or two numbers, or the same as text: ``"62e9"``, ``"31e9,62e9"``.
    """
    if isinstance(value, (int, float)):
        return float(value), float(value)
    parts = [part for part in value.split(",") if part.strip()] if isinstance(value, str) else value
    try:
        values = tuple(float(v) for v in parts)
    except ValueError:
        raise ValueError(f"{what} takes numbers, got {value!r}") from None
    if len(values) == 1:
        return values[0], values[0]
    if len(values) == 2:
        return values
    raise ValueError(f"{what} takes one or two values, got {len(values)}")


_TOPO_RE = re.compile(r"^(torus2d|switch2lvl):(\d+)x(\d+)$")


def parse_topology(
    spec: str,
    bandwidth: "float | str | tuple[float, ...] | list[float]",
    latency: "float | str | tuple[float, ...] | list[float]" = 0.0,
) -> Topology:
    """Parse ``torus2d:<d1>x<d2>`` / ``switch2lvl:<d1>x<d2>`` plus link parameters.

    Bandwidth and latency are read by ``dim_pair``: a single value applies to
    both dimensions; a pair sets them independently (dim-1 value first).
    """
    m = _TOPO_RE.match(spec.strip())
    if not m:
        raise ValueError(
            f"bad topology {spec!r}; expected 'torus2d:<d1>x<d2>' or 'switch2lvl:<d1>x<d2>'"
        )
    kind = TopologyKind(m.group(1))
    dim1, dim2 = int(m.group(2)), int(m.group(3))

    bw1, bw2 = dim_pair(bandwidth, "bandwidth")
    lat1, lat2 = dim_pair(latency, "latency")
    return Topology(kind, dim1, dim2, bw1, bw2, lat1, lat2)


# --------------------------------------------------------------------------
# Flat (single-ring) collectives
# --------------------------------------------------------------------------


def _check_args(size_bytes: float, n: int, bandwidth: float, latency: float) -> None:
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0, got {size_bytes}")
    if not size_bytes < math.inf:  # NaN or infinity
        raise ValueError(f"size must be finite, got {size_bytes}")
    if n < 1:
        raise ValueError(f"group size must be >= 1, got {n}")
    if not 0 < bandwidth < math.inf:
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    if not 0 <= latency < math.inf:
        raise ValueError(f"latency must be non-negative and finite, got {latency}")


def collective_time_flat(
    comm_type: "CommType | str",
    size_bytes: float,
    n: int,
    bandwidth: float,
    latency: float = 0.0,
) -> float:
    """Time of one collective over a flat group of ``n`` members on one link class.

    A ring collective takes ``steps`` = 2(n-1) for all-reduce (reduce-scatter
    then all-gather) and n-1 otherwise; each step moves 1/n of the buffer and
    pays one latency, except that all-to-all pays a single latency for its
    whole exchange. Send and receive move the whole buffer over one link. A
    one-member group moves nothing.
    """
    ct = CommType(comm_type)
    _check_args(size_bytes, n, bandwidth, latency)
    if n == 1:
        return 0.0
    if ct is CommType.SEND or ct is CommType.RECV:
        return size_bytes / bandwidth + latency
    steps = 2 * (n - 1) if ct is CommType.ALL_REDUCE else n - 1
    return steps * size_bytes / (n * bandwidth) + (latency if ct is CommType.ALL_TO_ALL else steps * latency)


def all_reduce_time(size_bytes: float, n: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring all-reduce: reduce-scatter plus all-gather, 2(n-1) steps."""
    return collective_time_flat(CommType.ALL_REDUCE, size_bytes, n, bandwidth, latency)


def all_gather_time(size_bytes: float, n: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring all-gather of a final buffer of ``size_bytes``, n-1 steps."""
    return collective_time_flat(CommType.ALL_GATHER, size_bytes, n, bandwidth, latency)


def reduce_scatter_time(size_bytes: float, n: int, bandwidth: float, latency: float = 0.0) -> float:
    """Ring reduce-scatter of an input buffer of ``size_bytes``, n-1 steps."""
    return collective_time_flat(CommType.REDUCE_SCATTER, size_bytes, n, bandwidth, latency)


def all_to_all_time(size_bytes: float, n: int, bandwidth: float, latency: float = 0.0) -> float:
    """Full exchange; every rank ships (n-1)/n of its buffer, one latency charge."""
    return collective_time_flat(CommType.ALL_TO_ALL, size_bytes, n, bandwidth, latency)


def p2p_transfer_time(size_bytes: float, bandwidth: float, latency: float = 0.0) -> float:
    """One point-to-point message over one link: a send within a pair."""
    return collective_time_flat(CommType.SEND, size_bytes, 2, bandwidth, latency)


# --------------------------------------------------------------------------
# Hierarchical / topology-aware timing
# --------------------------------------------------------------------------


def collective_time(
    comm_type: "CommType | str",
    size_bytes: float,
    group_size: int,
    dim: "int | str",
    topo: Topology,
) -> float:
    """Collective cost on a topology dimension.

    ``dim`` 1 or 2 uses that dimension's link with the flat formulas; the
    string ``HIERARCHICAL`` runs the collective across both dimensions of the
    whole fabric (all-reduce uses the reduce-scatter / inner all-reduce /
    all-gather split; other types run a dim-1 phase then a dim-2 phase).
    """
    ct = CommType(comm_type)
    if dim == HIERARCHICAL:
        if group_size != topo.npus:
            raise ValueError(
                f"hierarchical collectives span the whole fabric: group {group_size} != {topo.npus} npus"
            )
        return _two_phase_time(ct, size_bytes, topo.dim1, topo.dim2, topo)
    bw, lat = topo.bw_lat(int(dim))
    return collective_time_flat(ct, size_bytes, group_size, bw, lat)


def hierarchical_all_reduce_time(
    size_bytes: float,
    n1: int,
    n2: int,
    bw1: float,
    bw2: float,
    lat1: float = 0.0,
    lat2: float = 0.0,
) -> float:
    """All-reduce split over two dimensions.

    Reduce-scatter across dim 1 (full payload), all-reduce of the resulting
    1/n1 shard across dim 2, then all-gather back across dim 1.
    """
    return (
        reduce_scatter_time(size_bytes, n1, bw1, lat1)
        + all_reduce_time(size_bytes / n1, n2, bw2, lat2)
        + all_gather_time(size_bytes, n1, bw1, lat1)
    )


def group_dimension(members: "frozenset[int] | set[int] | tuple[int, ...]", topo: Topology) -> "int | str":
    """Which fabric dimension a communicator maps onto.

    Members sharing a row use dim 1, members sharing a column use dim 2, and
    anything spanning both coordinates is ``HIERARCHICAL``.
    """
    return _group_shape(members, topo)[3]


def _group_shape(
    members: "frozenset[int] | set[int] | tuple[int, ...]", topo: Topology
) -> "tuple[int, int, int, int | str]":
    """Member count, distinct dim-1 and dim-2 coordinates, and the dimension they map onto."""
    ranks = sorted(set(members))
    if not ranks:
        raise ValueError("empty communicator")
    coords = [topo.coords(r) for r in ranks]
    n1 = len({x for x, _ in coords})
    n2 = len({y for _, y in coords})
    return len(ranks), n1, n2, 1 if n2 == 1 else 2 if n1 == 1 else HIERARCHICAL


def group_collective_time(
    comm_type: "CommType | str",
    size_bytes: float,
    members: "frozenset[int] | set[int] | tuple[int, ...]",
    topo: Topology,
) -> float:
    """Time of one collective over an arbitrary member set on ``topo``.

    Row/column groups use the matching dimension's link. Mixed groups run a
    hierarchical all-reduce; other collectives over mixed groups decompose
    into a dim-1 phase followed by a dim-2 phase (a deliberate, simple upper
    structure rather than an optimal algorithm). A one-member group costs 0,
    once its comm type, rank and size pass the same checks as a larger one.
    """
    ct = CommType(comm_type)
    n, n1, n2, dim = _group_shape(members, topo)
    if dim == HIERARCHICAL:
        return _two_phase_time(ct, size_bytes, n1, n2, topo)
    bw, lat = topo.bw_lat(dim)
    return collective_time_flat(ct, size_bytes, n, bw, lat)


def _two_phase_time(ct: CommType, size_bytes: float, n1: int, n2: int, topo: Topology) -> float:
    """A collective over an n1 x n2 block spanning both dimensions.

    All-reduce runs hierarchically; any other collective runs a dim-1 phase
    followed by a dim-2 phase.
    """
    if ct is CommType.ALL_REDUCE:
        return hierarchical_all_reduce_time(size_bytes, n1, n2, topo.bw1, topo.bw2, topo.lat1, topo.lat2)
    return collective_time_flat(ct, size_bytes, n1, topo.bw1, topo.lat1) + collective_time_flat(
        ct, size_bytes, n2, topo.bw2, topo.lat2
    )


def p2p_time(size_bytes: float, src: int, dst: int, topo: Topology) -> float:
    """Point-to-point transfer time: one leg per coordinate that differs."""
    _check_args(size_bytes, 2, topo.bw1, topo.lat1)
    sx, sy = topo.coords(src)
    dx, dy = topo.coords(dst)
    total = 0.0
    if sx != dx:
        total += p2p_transfer_time(size_bytes, topo.bw1, topo.lat1)
    if sy != dy:
        total += p2p_transfer_time(size_bytes, topo.bw2, topo.lat2)
    return total


def near_square_dims(npus: int) -> tuple[int, int]:
    """Factor ``npus`` into the most square d1 x d2 grid (d1 >= d2)."""
    if npus < 1:
        raise ValueError("npus must be >= 1")
    d2 = int(math.isqrt(npus))
    while npus % d2:
        d2 -= 1
    return npus // d2, d2
