"""Statistical trace synthesis.

Pipeline: merge per-rank collective sequences into one lossless master trace,
matching collectives by replaying the workload as ``simulate`` does, on one
fixed fabric; fit distribution models on a corpus of masters
(collective-type composition clusters with first-order transition structure,
per-type Gaussian mixtures over log2 message size, empirical sequence
lengths); sample new masters that respect the same per-group ordering
constraints and reconstruct per-rank traces from them. Only COMM_COLL nodes become master ops; compute, memory and
p2p nodes only order them during the merge and are not synthesized.
"""
from __future__ import annotations

import json
import logging
import math
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import simulator
from .builder import TraceBuilder
from .schema import (
    ATTR_COMM_GROUP,
    ATTR_COMM_PEER,
    ATTR_COMM_SIZE,
    ATTR_COMM_TYPE,
    CommType,
    NodeType,
    Trace,
    get_int_attr,
    get_str_attr,
)
from .validate import InvalidTraceError, validate_workload

logger = logging.getLogger(__name__)

_TYPE_ORDER = tuple(ct.value for ct in CommType)


# --------------------------------------------------------------------------
# Master trace
# --------------------------------------------------------------------------


class MergeConflictError(ValueError):
    def __init__(self, group: str, message: str):
        self.group = group
        super().__init__(f"group {group!r}: {message}")


@dataclass(frozen=True)
class MasterOp:
    seq_no: int
    comm_type: CommType
    comm_group: str
    participants: frozenset[int]
    sizes: "dict[int, int]"  # rank -> bytes
    # Position of this op in the order each rank issues its collectives; this
    # is what makes reconstruction exact even when ranks interleave groups
    # differently.
    positions: "dict[int, int]"


@dataclass(frozen=True)
class MasterTrace:
    ops: tuple[MasterOp, ...]
    ranks: frozenset[int]

    def __len__(self) -> int:
        return len(self.ops)


def comm_sequence(trace: Trace) -> tuple[tuple[str, str, int], ...]:
    """A rank's collective sequence as (comm_type, comm_group, comm_size) triples."""
    out = []
    for node in trace.nodes:
        if node.type is NodeType.COMM_COLL:
            out.append(
                (
                    get_str_attr(node, ATTR_COMM_TYPE),
                    get_str_attr(node, ATTR_COMM_GROUP),
                    get_int_attr(node, ATTR_COMM_SIZE),
                )
            )
    return tuple(out)


def build_master_trace(traces: "list[Trace]") -> MasterTrace:
    """Merge per-rank collective sequences into one master: one op per collective launch.

    The workload replays on a fixed ``switch2lvl`` fabric with the default
    ``SimConfig``. A deadlock on a collective raises MergeConflictError naming
    its group; any other deadlock raises the DeadlockError. Issue order can
    depend on how long each transfer takes, so on another topology
    ``simulate`` may order a workload's collectives differently, or deadlock
    where this replay finishes.
    """
    report = validate_workload(traces)  # before the npu ids size the fabric
    if not report.ok:
        raise InvalidTraceError(report, "refusing to merge invalid workload")
    ranks = frozenset(t.npu_id for t in traces)
    for trace in traces:
        for node in trace.nodes:
            if node.type is NodeType.COMM_SEND or node.type is NodeType.COMM_RECV:
                peer = get_int_attr(node, ATTR_COMM_PEER)
                if peer not in ranks:
                    raise ValueError(
                        f"npu {trace.npu_id} node {node.id}: comm_peer {peer} is not the npu_id of any trace"
                    )
    fabric = simulator._template_topology("switch2lvl", max(ranks, default=0) + 1, 62e9, 0.0)
    try:
        result = simulator.run_simulation(traces, simulator.SimConfig(fabric), collect_timeline=False)
    except simulator.DeadlockError as exc:
        raise _merge_conflict(traces, exc) from None

    # An NPU holds one network node at a time, so its collectives launch in
    # the order it issues them: the n-th launch a rank joins is its op n.
    launched: dict[int, int] = {}  # rank -> number of collective launches it joined so far
    keyed = []  # (earliest (position, rank), group, arrival number), comm type, members, positions
    for (group, slot), comm_type, members in result.launches:
        positions = {}
        for npu, _, _, _ in members:
            positions[npu] = launched.get(npu, 0)
            launched[npu] = positions[npu] + 1
        earliest = min((pos, rank) for rank, pos in positions.items())
        keyed.append(((earliest, group, slot), comm_type, members, positions))
    keyed.sort(key=lambda entry: entry[0])
    ops = tuple(
        MasterOp(
            seq_no=seq_no,
            comm_type=CommType(comm_type),
            comm_group=group,
            participants=frozenset(positions),
            sizes={npu: amount for npu, _, amount, _ in members},
            positions=positions,
        )
        for seq_no, ((_, group, _), comm_type, members, positions) in enumerate(keyed)
    )
    return MasterTrace(ops=ops, ranks=ranks)


def _merge_conflict(traces: "list[Trace]", exc: "simulator.DeadlockError") -> Exception:
    """MergeConflictError for the first collective that deadlocked replay, or else ``exc``."""
    counts: dict[str, Counter] = {}  # group -> rank -> number of its ops in that group
    for trace in sorted(traces, key=lambda t: t.npu_id):
        for _, group, _ in comm_sequence(trace):
            counts.setdefault(group, Counter())[trace.npu_id] += 1
    for group, per_rank in counts.items():
        if len(set(per_rank.values())) > 1:
            detail = ", ".join(f"rank {r} has {n} ops" for r, n in sorted(per_rank.items()))
            return MergeConflictError(group, f"ranks disagree on op count: {detail}")
    open_colls = [(key, members) for key, members in exc.waiting if members[0][3] is not None]
    if not open_colls:
        return exc
    # Name a rendezvous whose members disagree on the type first: the others may only wait on it.
    disagreeing = [(key, members) for key, members in open_colls if len({m[3] for m in members}) > 1]
    (group, slot), members = (disagreeing or open_colls)[0]
    detail = ", ".join(f"rank {npu} op {slot} is {t}" for npu, _, _, t in sorted(members))
    return MergeConflictError(group, f"op order conflict at slot {slot}: {detail}")


def reconstruct_rank_traces(master: MasterTrace, npus: int) -> list[Trace]:
    """Per-rank traces from a master: each rank's ops chained in the order it issued them."""
    names = [f"{op.comm_type.value.lower()}_{op.seq_no}" for op in master.ops]
    traces = []
    for rank in range(npus):
        # Each op this rank joined, by its position in the rank's order, then in the master's.
        mine = sorted((op.positions[rank], i) for i, op in enumerate(master.ops) if rank in op.participants)
        b = TraceBuilder(rank)
        parents: "tuple[int, ...]" = ()
        for _, i in mine:
            op = master.ops[i]
            parents = (b.coll(names[i], op.comm_type, op.sizes[rank], op.comm_group, parents),)
        traces.append(b.build())
    return traces


# --------------------------------------------------------------------------
# Gaussian mixture fitting (1-D, from scratch)
# --------------------------------------------------------------------------

_VAR_FLOOR = 1e-6
_EM_TOL = 1e-6  # EM stops once the mean log-likelihood moves less than this
_EM_MAX_ITER = 200
_KMEANS_ITERS = 50


@dataclass(frozen=True)
class GmmComponent:
    weight: float
    mean: float
    var: float


@dataclass(frozen=True)
class Gmm1D:
    components: tuple[GmmComponent, ...]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        weights = np.array([c.weight for c in self.components])
        choice = rng.choice(len(self.components), size=n, p=weights / weights.sum())
        out = np.empty(n)
        for i, comp in enumerate(self.components):
            mask = choice == i
            out[mask] = rng.normal(comp.mean, np.sqrt(comp.var), size=int(mask.sum()))
        return out


def _log_gaussian(x: np.ndarray, mean: float, var: float) -> np.ndarray:
    return -0.5 * (np.log(2 * np.pi * var) + (x - mean) ** 2 / var)


def _kmeanspp_centers(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """``k`` rows of ``points`` (n x d), picked distance-weighted (k-means++)."""
    n = len(points)
    centers = points[[int(rng.integers(n))]].copy()
    while len(centers) < k:
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1)
        total = d2.sum()
        if total == 0:  # every point already coincides with a center
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=d2 / total))
        centers = np.vstack([centers, points[[pick]]])
    return centers


def fit_gmm(samples: "np.ndarray | list[float]", k: int, seed: int) -> Gmm1D:
    """EM fit of a k-component 1-D Gaussian mixture (seeded, deterministic).

    Fewer than k samples degrade to a single-component fit with a warning.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot fit a mixture to zero samples")
    if k < 1:
        raise ValueError("k must be >= 1")
    if x.size < k:
        logger.warning("only %d samples for k=%d; falling back to a single component", x.size, k)
        k = 1
    if k == 1:
        return Gmm1D((GmmComponent(1.0, float(x.mean()), float(max(x.var(), _VAR_FLOOR))),))

    rng = np.random.default_rng(seed)
    means = _kmeanspp_centers(x[:, None], k, rng)[:, 0]
    variances = np.full(k, max(float(x.var()), _VAR_FLOOR))
    weights = np.full(k, 1.0 / k)

    prev_ll = -np.inf
    for _ in range(_EM_MAX_ITER):
        log_resp = np.stack(
            [np.log(weights[j]) + _log_gaussian(x, means[j], variances[j]) for j in range(k)]
        )
        log_norm = np.logaddexp.reduce(log_resp, axis=0)
        ll = float(log_norm.mean())
        resp = np.exp(log_resp - log_norm)
        nk = resp.sum(axis=1)
        nk = np.maximum(nk, 1e-12)
        weights = nk / x.size
        means = (resp @ x) / nk
        variances = np.maximum((resp @ x**2) / nk - means**2, _VAR_FLOOR)
        if abs(ll - prev_ll) < _EM_TOL:
            break
        prev_ll = ll

    order = np.argsort(means)
    return Gmm1D(
        tuple(
            GmmComponent(float(weights[j]), float(means[j]), float(variances[j])) for j in order
        )
    )


# --------------------------------------------------------------------------
# Composition clustering + type chain model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterModel:
    weight: float
    type_probs: "dict[str, float]"  # CommType value -> probability
    transitions: "dict[str, dict[str, float]]"  # prev type -> next-type distribution
    lengths: tuple[int, ...]  # empirical sequence lengths seen in this cluster

    def check(self) -> None:
        # Only a cluster of collective-free masters (every length 0) holds no types.
        has_types = self.type_probs or self.transitions or any(self.lengths)
        if has_types and abs(sum(self.type_probs.values()) - 1.0) > 1e-9:
            raise ValueError("type probabilities must sum to 1")
        for prev, row in self.transitions.items():
            if abs(sum(row.values()) - 1.0) > 1e-9:
                raise ValueError(f"transition row for {prev} must sum to 1")
        if not self.lengths:  # synthesis without --num-ops draws one of them
            raise ValueError("cluster lengths must hold at least one sequence length")
        for n in self.lengths:
            if type(n) is not int or n < 0:
                raise ValueError(f"sequence length {n!r} is not an int >= 0")


@dataclass(frozen=True)
class CommTypeModel:
    clusters: tuple[ClusterModel, ...]

    @classmethod
    def memoryless(cls, type_probs: "dict[str, float]", lengths: "tuple[int, ...]" = (100,)) -> "CommTypeModel":
        """Single cluster whose chain has no autocorrelation (iid types)."""
        probs = dict(type_probs)
        transitions = {t: dict(probs) for t in probs}
        model = cls((ClusterModel(1.0, probs, transitions, tuple(lengths)),))
        model.clusters[0].check()
        return model


def _kmeans(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """K-means over composition vectors; returns the assignment.

    Centers are seeded distance-weighted (k-means++ style) — uniform seeding
    routinely drops a whole composition family when the corpus is small.
    """
    n = len(vectors)
    k = min(k, n)
    centers = _kmeanspp_centers(vectors, k, rng)
    assign = np.zeros(n, dtype=int)
    for _ in range(_KMEANS_ITERS):
        dists = ((vectors[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if (new_assign == assign).all():
            assign = new_assign
            break
        assign = new_assign
        for j in range(k):
            members = vectors[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
    return assign


@dataclass(frozen=True)
class FittedModels:
    type_model: CommTypeModel
    size_model: "dict[str, Gmm1D]"  # CommType value -> mixture over log2(bytes)


def fit_models(
    corpus: "Iterable[MasterTrace]",
    k_components: int = 3,
    n_clusters: int = 2,
    seed: int = 0,
) -> FittedModels:
    """Fit all synthesis models on a corpus of master traces.

    Both counts are checked before the corpus is read. The corpus is read
    once, one master at a time, and no master is kept.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if k_components < 1:
        raise ValueError("k must be >= 1")
    # Each master comes down to its op count, comm-type counts and (prev, next) transition
    # counts, and each op's log2 total bytes, appended per type in corpus order.
    tallies = []
    log2_sizes: "dict[str, array]" = {}
    for master in corpus:
        types = [op.comm_type.value for op in master.ops]
        for t, total in zip(types, [sum(op.sizes.values()) for op in master.ops]):
            # float first: payloads that each fit int64 can sum past what numpy converts
            log2_sizes.setdefault(t, array("d")).append(np.log2(float(max(1, total))))
        tallies.append((len(types), Counter(types), Counter(zip(types, types[1:]))))
        del master  # so it can go while the corpus reads the next one
    if not tallies:
        raise ValueError("corpus must contain at least one master trace")
    rng = np.random.default_rng(seed)

    vectors = np.array([[counts[t] / n if n else 0.0 for t in _TYPE_ORDER] for n, counts, _ in tallies])
    assign = _kmeans(vectors, n_clusters, rng).tolist()

    clusters = []
    for j in sorted(set(assign)):
        members = [tally for tally, a in zip(tallies, assign) if a == j]
        counts, trans_counts = Counter(), Counter()
        for _, member_counts, member_trans in members:
            counts.update(member_counts)
            trans_counts.update(member_trans)
        total = sum(counts.values())
        type_probs = {t: c / total for t, c in sorted(counts.items())}
        transitions = {}
        for t in type_probs:
            row = {u: c for (prev, u), c in sorted(trans_counts.items()) if prev == t}
            row_total = sum(row.values())
            # Never observed as a predecessor: fall back to the marginal.
            transitions[t] = {u: c / row_total for u, c in row.items()} if row else dict(type_probs)
        cluster = ClusterModel(
            weight=len(members) / len(tallies),
            type_probs=type_probs,
            transitions=transitions,
            lengths=tuple(sorted(n for n, _, _ in members)),
        )
        cluster.check()
        clusters.append(cluster)

    size_model = {
        t: fit_gmm(np.frombuffer(vals), k_components, seed=seed + i)
        for i, (t, vals) in enumerate(sorted(log2_sizes.items()))
    }
    return FittedModels(type_model=CommTypeModel(tuple(clusters)), size_model=size_model)


# --------------------------------------------------------------------------
# Synthesis
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    npus: int
    seed: int
    num_ops: "int | None" = None  # override the sampled sequence length
    split_jitter: float = 0.1  # +/- fraction applied to per-rank equal shares
    comm_group: str = "g0"

    def __post_init__(self) -> None:
        if self.npus < 1:
            raise ValueError("npus must be >= 1")
        if not 0 <= self.split_jitter < 1:
            raise ValueError("split_jitter must be in [0, 1)")
        if self.num_ops is not None and self.num_ops < 0:
            raise ValueError("num_ops must be >= 0")


def _round_up4(value: float) -> int:
    n = max(4, math.ceil(value))
    return ((n + 3) // 4) * 4


def _cdf(weights: "list[float]") -> "list[float]":
    """The CDF that ``rng.choice(len(weights), p=weights / weights.sum())`` builds, by the same numpy
    operations, and searches, side "right", for its one ``rng.random()``: so
    ``bisect_right(cdf, rng.random())`` takes that draw and picks what that choice picks."""
    p = np.array(weights)
    p = p / p.sum()
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _size_sampler(gmm: Gmm1D) -> "tuple[list[float], list[tuple[float, float]]]":
    """What ``gmm.sample(rng, 1)`` draws from: its component CDF and each component's (mean, sd)."""
    return _cdf([c.weight for c in gmm.components]), [(c.mean, math.sqrt(c.var)) for c in gmm.components]


# log2-size samples are clamped to a sane byte range before exponentiation.
_LOG2_MIN, _LOG2_MAX = 2.0, 50.0


def synthesize_master(models: FittedModels, cfg: SynthConfig) -> MasterTrace:
    """Sample one master trace: cluster -> length -> type chain -> sizes -> split.

    Types and sizes take the draws ``rng.choice`` and ``Gmm1D.sample(rng, 1)`` take, as scalars.
    """
    rng = np.random.default_rng(cfg.seed)
    clusters = models.type_model.clusters
    if cfg.num_ops:  # a positive op count draws only among clusters that hold collectives
        clusters = tuple(c for c in clusters if c.type_probs)
        if not clusters:
            raise ValueError(f"models hold no collectives to draw {cfg.num_ops} ops from")
    weights = np.array([c.weight for c in clusters])
    cluster = clusters[int(rng.choice(len(clusters), p=weights / weights.sum()))]

    if cfg.num_ops is not None:
        length = cfg.num_ops
    else:
        length = int(cluster.lengths[int(rng.integers(len(cluster.lengths)))])

    random, normal = rng.random, rng.normal
    dists = {None: cluster.type_probs, **cluster.transitions} if length else {}  # previous type -> next type's
    rows = {prev: (list(dist), _cdf(list(dist.values()))) for prev, dist in dists.items()}
    types: list[str] = []
    for _ in range(length):
        names, cdf = rows[types[-1] if types else None]
        types.append(names[bisect_right(cdf, random())])

    ranks = list(range(cfg.npus))
    participants = frozenset(ranks)
    samplers = {t: _size_sampler(models.size_model[t]) for t in set(types)}
    ops = []
    for seq_no, t in enumerate(types):
        cdf, components = samplers[t]
        x = min(max(normal(*components[bisect_right(cdf, random())]), _LOG2_MIN), _LOG2_MAX)
        total = _round_up4(2.0**x)
        if cfg.split_jitter > 0 and cfg.npus > 1:
            noise = rng.uniform(1 - cfg.split_jitter, 1 + cfg.split_jitter, size=cfg.npus)
            shares = noise * (total / cfg.npus)  # each rank's equal share, jittered
            shares *= total / shares.sum()
            sizes = dict(zip(ranks, map(_round_up4, shares.tolist())))
        else:
            sizes = dict.fromkeys(ranks, _round_up4(total / cfg.npus))
        ops.append(
            MasterOp(
                seq_no=seq_no,
                comm_type=CommType(t),
                comm_group=cfg.comm_group,
                participants=participants,
                sizes=sizes,
                positions=dict.fromkeys(ranks, seq_no),
            )
        )
    return MasterTrace(ops=tuple(ops), ranks=participants)


def synthesize(models: FittedModels, cfg: SynthConfig) -> list[Trace]:
    return reconstruct_rank_traces(synthesize_master(models, cfg), cfg.npus)


# --------------------------------------------------------------------------
# Model (de)serialization and small statistics helpers
# --------------------------------------------------------------------------

MODELS_FORMAT_VERSION = 1


def models_to_json(models: FittedModels) -> str:
    doc = {
        "version": MODELS_FORMAT_VERSION,
        "type_model": {
            "clusters": [
                {
                    "weight": c.weight,
                    "type_probs": c.type_probs,
                    "transitions": c.transitions,
                    "lengths": list(c.lengths),
                }
                for c in models.type_model.clusters
            ]
        },
        "size_model": {
            t: [{"weight": c.weight, "mean": c.mean, "var": c.var} for c in gmm.components]
            for t, gmm in sorted(models.size_model.items())
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _number(value: object, what: str, low: float = 0.0) -> float:
    """``value`` unchanged; ValueError unless it is a finite JSON number >= ``low``."""
    if type(value) not in (int, float) or not low <= value <= sys.float_info.max:
        raise ValueError(f"models document: {what} {value!r} is not a finite number" + (" >= 0" if low == 0 else ""))
    return value  # type: ignore[return-value]


def _probs(row: object, what: str) -> "dict[str, float]":
    return {t: _number(p, f"{what} probability of {t!r}") for t, p in dict(row).items()}


def models_from_json(text: "str | bytes") -> FittedModels:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"models document is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"models document must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != MODELS_FORMAT_VERSION:
        raise ValueError(f"unsupported models document version {doc.get('version')!r}")
    try:
        clusters = tuple(
            ClusterModel(
                weight=_number(c["weight"], "cluster weight"),
                type_probs=_probs(c["type_probs"], "type_probs"),
                transitions={k: _probs(v, f"transitions[{k!r}]") for k, v in c["transitions"].items()},
                lengths=tuple(_number(n, "sequence length") for n in c["lengths"]),
            )
            for c in doc["type_model"]["clusters"]
        )
        size_model = {
            t: Gmm1D(
                tuple(
                    GmmComponent(
                        _number(c["weight"], "size weight"),
                        _number(c["mean"], "size mean", -sys.float_info.max),
                        _number(c["var"], "size variance"),
                    )
                    for c in comps
                )
            )
            for t, comps in doc["size_model"].items()
        }
    except KeyError as exc:
        raise ValueError(f"models document lacks field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"models document is malformed: {exc}") from None
    # Sampling picks a cluster and follows every type it can reach to a
    # transition row and a size model; each pick divides by a sum of weights.
    if not clusters:
        raise ValueError("models document has no clusters")
    for cluster in clusters:
        cluster.check()
        for t in {*cluster.type_probs, *(u for row in cluster.transitions.values() for u in row)}:
            if t not in cluster.transitions or t not in size_model or not size_model[t].components:
                raise ValueError(f"models document: type {t!r} has no transition row or no size model")
            _check_weight_sum([c.weight for c in size_model[t].components], f"size weights of type {t!r}")
    _check_weight_sum([c.weight for c in clusters], "cluster weights")
    drawn = [c.weight for c in clusters if c.type_probs]  # the clusters a positive num_ops draws among
    if drawn:
        _check_weight_sum(drawn, "weights of the clusters that hold collectives")
    return FittedModels(type_model=CommTypeModel(clusters), size_model=size_model)


def _check_weight_sum(weights: "list[float]", what: str) -> None:
    """ValueError unless ``weights``, each a finite number >= 0, sum to a positive finite number."""
    total = sum(weights)
    if not 0 < total <= sys.float_info.max:
        raise ValueError(f"models document: {what} sum to {total!r}, not a positive finite number")


def ks_statistic(a: "np.ndarray | list[float]", b: "np.ndarray | list[float]") -> float:
    """Two-sample Kolmogorov-Smirnov statistic (sup CDF distance)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("KS statistic needs non-empty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def total_variation(p: "dict[str, float]", q: "dict[str, float]") -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)
