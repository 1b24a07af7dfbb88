import hashlib
import math
from fractions import Fraction

import pytest

from ettrace.costmodel import (
    HIERARCHICAL,
    Topology,
    TopologyKind,
    all_gather_time,
    all_reduce_time,
    all_to_all_time,
    collective_time,
    collective_time_flat,
    dim_pair,
    group_collective_time,
    group_dimension,
    hierarchical_all_reduce_time,
    near_square_dims,
    p2p_time,
    p2p_transfer_time,
    parse_topology,
    reduce_scatter_time,
)
from ettrace.schema import CommType

from oracles import collective_oracle, hierarchical_all_reduce_oracle

GOLDEN_AR_SECONDS = 101.475e-6  # ALL_REDUCE(4 MiB, N=4, B=62 GB/s, L=0)


def test_golden_all_reduce():
    t = all_reduce_time(4 * 1024 * 1024, 4, 62e9, 0.0)
    assert abs(t - GOLDEN_AR_SECONDS) <= 1e-9
    oracle = collective_oracle("ALL_REDUCE", 4 * 1024 * 1024, 4, 62e9, 0.0)
    assert abs(t - float(oracle)) <= 1e-9


def test_n_equals_one_is_free():
    for fn in (all_reduce_time, all_gather_time, reduce_scatter_time, all_to_all_time):
        assert fn(10**9, 1, 1e9, 5.0) == 0.0
    # one-member groups move nothing, point-to-point included
    for ct in CommType:
        assert collective_time_flat(ct, 10**9, 1, 1e9, 5.0) == 0.0


def test_zero_byte_send_costs_latency_only():
    assert p2p_transfer_time(0, 62e9, 2e-6) == 2e-6
    assert collective_time_flat(CommType.SEND, 0, 2, 62e9, 2e-6) == 2e-6


def test_reduce_scatter_equals_all_gather():
    assert reduce_scatter_time(123456, 7, 3.2e9, 1e-7) == all_gather_time(123456, 7, 3.2e9, 1e-7)


def test_all_reduce_is_rs_plus_ag():
    args = (5 * 1024, 6, 11e9, 3e-7)
    assert all_reduce_time(*args) == pytest.approx(
        reduce_scatter_time(*args) + all_gather_time(*args), rel=1e-15
    )


def test_oracle_agreement_randomized():
    import random

    rng = random.Random(331)
    types = ["ALL_REDUCE", "ALL_GATHER", "REDUCE_SCATTER", "ALL_TO_ALL", "SEND", "RECV"]
    worst = 0.0
    for _ in range(100):
        ct = rng.choice(types)
        size = rng.randint(0, 2**33)
        n = rng.randint(1, 128)
        bw = rng.uniform(1e9, 1e12)
        lat = rng.choice([0.0, rng.uniform(0.0, 1e-5)])
        got = collective_time_flat(ct, size, n, bw, lat)
        want = collective_oracle(ct, size, n, bw, lat)
        if want == 0:
            assert got == 0.0
        else:
            worst = max(worst, abs(Fraction(got) - want) / want)
    assert worst <= 1e-12, f"worst relative error {worst}"


def test_oracle_agreement_exact_on_exact_inputs():
    # sizes divisible by n and power-of-two bandwidths make the float math exact
    for n in (2, 4, 8, 32):
        for ct in ("ALL_REDUCE", "ALL_GATHER", "ALL_TO_ALL"):
            size = n * 4096
            got = collective_time_flat(ct, size, n, 2.0**33, 0.0)
            assert Fraction(got) == collective_oracle(ct, size, n, 2.0**33, 0.0)


def test_hierarchical_all_reduce_matches_oracle_and_multipliers():
    S, B = 64 * 1024 * 1024, 62e9
    for d in (2, 4, 8):
        got = hierarchical_all_reduce_time(S, d, d, B, B)
        want = hierarchical_all_reduce_oracle(S, d, d, B, B)
        assert abs(Fraction(got) - want) / want <= 1e-12
    # closed-form multipliers for square d x d fabrics:
    # RS + AG on dim1 cost 2(d-1)/d * S/B; the inner AR on the S/d shard
    # adds 2(d-1)/d^2 * S/B, so the total is (2(d-1)/d)(1 + 1/d) * S/B
    for d, multiplier in ((2, 1.5), (4, 1.875), (8, 1.96875)):
        got = hierarchical_all_reduce_time(S, d, d, B, B)
        assert got == pytest.approx(multiplier * S / B, rel=1e-12)


def test_argument_validation():
    with pytest.raises(ValueError):
        all_reduce_time(-1, 4, 1e9)
    with pytest.raises(ValueError):
        all_reduce_time(1, 0, 1e9)
    with pytest.raises(ValueError):
        all_reduce_time(1, 4, 0)
    with pytest.raises(ValueError):
        all_reduce_time(1, 4, 1e9, -1)


def square_torus(d, bw=62e9, lat=0.0):
    return Topology(TopologyKind.TORUS_2D, d, d, bw, bw, lat, lat)


def test_collective_time_dim_selection():
    topo = Topology(TopologyKind.TORUS_2D, 4, 2, 10e9, 5e9)
    s = 1 << 20
    assert collective_time("ALL_REDUCE", s, 4, 1, topo) == all_reduce_time(s, 4, 10e9)
    assert collective_time("ALL_REDUCE", s, 2, 2, topo) == all_reduce_time(s, 2, 5e9)
    got = collective_time("ALL_REDUCE", s, 8, HIERARCHICAL, topo)
    assert got == hierarchical_all_reduce_time(s, 4, 2, 10e9, 5e9)
    with pytest.raises(ValueError, match="whole fabric"):
        collective_time("ALL_REDUCE", s, 4, HIERARCHICAL, topo)


def test_group_dimension_mapping():
    topo = square_torus(2)  # ranks 0..3, coords (x=r%2, y=r//2)
    assert group_dimension({0, 1}, topo) == 1  # same row
    assert group_dimension({0, 2}, topo) == 2  # same column
    assert group_dimension({3}, topo) == 1  # singleton defaults to dim 1
    assert group_dimension({0, 1, 2, 3}, topo) == HIERARCHICAL
    with pytest.raises(ValueError):
        group_dimension(set(), topo)


def test_group_collective_time_paths():
    topo = Topology(TopologyKind.TORUS_2D, 2, 2, 10e9, 5e9)
    s = 1 << 20
    assert group_collective_time("ALL_REDUCE", s, {0}, topo) == 0.0
    assert group_collective_time("ALL_REDUCE", s, {0, 1}, topo) == all_reduce_time(s, 2, 10e9)
    assert group_collective_time("ALL_REDUCE", s, {0, 2}, topo) == all_reduce_time(s, 2, 5e9)
    mixed = group_collective_time("ALL_REDUCE", s, {0, 1, 2, 3}, topo)
    assert mixed == hierarchical_all_reduce_time(s, 2, 2, 10e9, 5e9)
    two_phase = group_collective_time("ALL_TO_ALL", s, {0, 1, 2, 3}, topo)
    assert two_phase == all_to_all_time(s, 2, 10e9) + all_to_all_time(s, 2, 5e9)


def test_one_member_groups_are_checked_like_larger_ones():
    topo = parse_topology("torus2d:2x2", 62e9)
    for members in ({99}, {98, 99}):
        with pytest.raises(ValueError, match="'BOGUS' is not a valid CommType"):
            group_collective_time("BOGUS", -5, members, topo)
        with pytest.raises(ValueError, match=f"rank {min(members)} outside 0..3"):
            group_collective_time("ALL_REDUCE", 5, members, topo)
    for members in ({0}, {0, 1}):
        with pytest.raises(ValueError, match="size must be >= 0, got -5"):
            group_collective_time("ALL_REDUCE", -5, members, topo)
    for ct in CommType:
        assert group_collective_time(ct.value, 12345, {3}, topo) == 0.0


def test_p2p_time_legs():
    topo = Topology(TopologyKind.TORUS_2D, 2, 2, 10e9, 5e9, 1e-6, 2e-6)
    s = 10e9  # 1 second on dim1, 2 on dim2
    assert p2p_time(s, 0, 1, topo) == pytest.approx(1.0 + 1e-6)
    assert p2p_time(s, 0, 2, topo) == pytest.approx(2.0 + 2e-6)
    assert p2p_time(s, 0, 3, topo) == pytest.approx(3.0 + 3e-6)
    assert p2p_time(s, 1, 1, topo) == 0.0


def test_parse_topology():
    topo = parse_topology("torus2d:4x2", (10e9, 5e9), (1e-6, 2e-6))
    assert topo.kind is TopologyKind.TORUS_2D
    assert (topo.dim1, topo.dim2) == (4, 2)
    assert (topo.bw1, topo.bw2) == (10e9, 5e9)
    assert (topo.lat1, topo.lat2) == (1e-6, 2e-6)
    assert topo.npus == 8
    single = parse_topology("switch2lvl:8x8", 62e9)
    assert single.kind is TopologyKind.SWITCH_2LVL
    assert single.bw1 == single.bw2 == 62e9
    for bad in ("mesh:2x2", "torus2d:2", "torus2d:0x4", "torus2d:axb"):
        with pytest.raises(ValueError):
            parse_topology(bad, 1e9)


def test_dim_pair_reads_numbers_sequences_and_text():
    assert dim_pair(62e9, "bandwidth") == (62e9, 62e9)
    assert dim_pair((31e9,), "bandwidth") == (31e9, 31e9)
    assert dim_pair([31e9, 62e9], "bandwidth") == (31e9, 62e9)
    assert dim_pair("62e9", "bandwidth") == (62e9, 62e9)
    assert dim_pair(" 31e9, 62e9 ,", "bandwidth") == (31e9, 62e9)
    assert parse_topology("torus2d:2x2", "31e9,62e9", "1e-6") == parse_topology("torus2d:2x2", (31e9, 62e9), 1e-6)
    for bad in ("", ",", "a", "1,b", "1,2,3", (), (1, 2, 3)):
        with pytest.raises(ValueError, match="bandwidth"):
            dim_pair(bad, "bandwidth")


def test_non_finite_link_parameters_are_refused():
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            Topology(TopologyKind.TORUS_2D, 2, 2, 62e9, value)
        with pytest.raises(ValueError, match="latency must be non-negative and finite"):
            Topology(TopologyKind.SWITCH_2LVL, 2, 2, 62e9, 62e9, value, 0.0)
        with pytest.raises(ValueError):
            parse_topology("torus2d:2x2", str(value))
    Topology(TopologyKind.TORUS_2D, 2, 2, 62e9, 62e9, 0.0, 1e-6)  # zero latency stays valid


def test_flat_prices_refuse_non_finite_links():
    for value in (math.inf, math.nan):
        for fn in (all_reduce_time, all_gather_time, reduce_scatter_time, all_to_all_time):
            with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
                fn(1 << 20, 4, value)
            with pytest.raises(ValueError, match="latency must be non-negative and finite"):
                fn(1 << 20, 4, 62e9, value)
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            p2p_transfer_time(10, value, 0.0)
        with pytest.raises(ValueError, match="latency must be non-negative and finite"):
            p2p_transfer_time(10, 1e9, value)
        with pytest.raises(ValueError, match="latency must be non-negative and finite"):
            hierarchical_all_reduce_time(1 << 20, 2, 2, 62e9, 62e9, 0.0, value)


def test_prices_refuse_non_finite_payloads():
    topo = parse_topology("torus2d:2x2", 62e9)
    for value in (math.inf, math.nan):
        for fn in (all_reduce_time, all_gather_time, reduce_scatter_time, all_to_all_time):
            with pytest.raises(ValueError, match="size must be finite"):
                fn(value, 4, 62e9)
        with pytest.raises(ValueError, match="size must be finite"):
            p2p_transfer_time(value, 1e9)
        with pytest.raises(ValueError, match="size must be finite"):
            hierarchical_all_reduce_time(value, 2, 2, 62e9, 62e9)
        for members in ({0}, {0, 1}, {0, 1, 2, 3}):
            with pytest.raises(ValueError, match="size must be finite"):
                group_collective_time("ALL_REDUCE", value, members, topo)
        for dst in (0, 3):  # a transfer to itself moves nothing, but its size is checked all the same
            with pytest.raises(ValueError, match="size must be finite"):
                p2p_time(value, 0, dst, topo)
    with pytest.raises(ValueError, match="size must be >= 0, got -inf"):
        all_reduce_time(-math.inf, 4, 62e9)


def test_topology_kind_is_coerced_from_text():
    text = Topology("torus2d", 2, 1, bw1=62e9, bw2=62e9, lat1=1e-6, lat2=1e-6)
    assert text.kind is TopologyKind.TORUS_2D
    assert text == parse_topology("torus2d:2x1", 62e9, 1e-6)
    assert Topology("switch2lvl", 2, 2, 62e9, 62e9) == parse_topology("switch2lvl:2x2", 62e9)
    with pytest.raises(ValueError, match="mesh"):
        Topology("mesh", 2, 2, 62e9, 62e9)


def test_topology_coords():
    topo = square_torus(2)
    assert [topo.coords(r) for r in range(4)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError):
        topo.coords(4)


def test_near_square_dims():
    assert near_square_dims(1) == (1, 1)
    assert near_square_dims(2) == (2, 1)
    assert near_square_dims(4) == (2, 2)
    assert near_square_dims(12) == (4, 3)
    assert near_square_dims(16) == (4, 4)
    assert near_square_dims(64) == (8, 8)
    for n, (d1, d2) in ((6, (3, 2)), (7, (7, 1)), (18, (6, 3))):
        assert near_square_dims(n) == (d1, d2)
        assert d1 * d2 == n and d1 >= d2


# Every public price over a grid, as "call -> repr(result)" lines; the sha256 of
# those lines was recorded before the flat collectives shared one closed form
# and must never move.
_SIZES = (0, 1, 4096, 12345, 2**33)
_GROUP_SIZES = (1, 2, 3, 7, 128)
_BANDWIDTHS = (62e9, 2.0**33, 23.7e9, 3.3)
_LATENCIES = (0.0, 1e-6)
_FLAT_FUNCTIONS = (all_reduce_time, all_gather_time, reduce_scatter_time, all_to_all_time)


def _priced(name, fn, *args):
    return f"{name}{args!r} -> {fn(*args)!r}"


def _flat_prices():
    for size in _SIZES:
        for bw in _BANDWIDTHS:
            for lat in _LATENCIES:
                yield _priced("p2p_transfer_time", p2p_transfer_time, size, bw, lat)
                for n in _GROUP_SIZES:
                    for fn in _FLAT_FUNCTIONS:
                        yield _priced(fn.__name__, fn, size, n, bw, lat)
                    for ct in CommType:
                        yield _priced("collective_time_flat", collective_time_flat, ct.value, size, n, bw, lat)


def _hierarchical_prices():
    for size in _SIZES:
        for n1 in _GROUP_SIZES[:4]:
            for n2 in _GROUP_SIZES[:4]:
                for bw1, bw2 in ((62e9, 62e9), (23.7e9, 62e9), (2.0**33, 3.3)):
                    for lat1, lat2 in ((0.0, 0.0), (1e-6, 0.0), (1e-6, 2.5e-6)):
                        yield _priced("hierarchical_all_reduce_time", hierarchical_all_reduce_time,
                                      size, n1, n2, bw1, bw2, lat1, lat2)


def _pin_topologies():
    yield Topology(TopologyKind.TORUS_2D, 2, 2, 62e9, 62e9)
    yield Topology(TopologyKind.TORUS_2D, 4, 2, 23.7e9, 62e9, 1e-6, 2.5e-6)
    yield Topology(TopologyKind.SWITCH_2LVL, 3, 2, 2.0**33, 3.3, 0.0, 1e-6)


def _group_prices():
    for topo in _pin_topologies():
        ranks = range(topo.npus)
        for mask in range(1, 1 << topo.npus):
            members = frozenset(r for r in ranks if mask >> r & 1)
            yield f"group_dimension({sorted(members)}, {topo!r}) -> {group_dimension(members, topo)!r}"
            for ct in CommType:
                for size in (0, 12345, 2**33):
                    yield _priced("group_collective_time", group_collective_time, ct.value, size, members, topo)
        for src in ranks:
            for dst in ranks:
                for size in (0, 12345, 2**33):
                    yield _priced("p2p_time", p2p_time, size, src, dst, topo)
        for ct in CommType:
            for size in (0, 12345):
                yield _priced("collective_time", collective_time, ct.value, size, topo.npus, HIERARCHICAL, topo)
                for dim, n in ((1, topo.dim1), (2, topo.dim2)):
                    yield _priced("collective_time", collective_time, ct.value, size, n, dim, topo)


PRICE_SHA256 = {
    "flat": (_flat_prices, "d853a12b0348137f8474644f51b3d08f9d2515cda4ed353f7a0de57b72f15c27"),
    "hierarchical": (_hierarchical_prices, "a3b1d441cc957809fb5a564be59c0bb469e8414ab5ec12945514255a712cf0c6"),
    "groups": (_group_prices, "eb134d098454ae4417e0a74618d5880428296a2d41eaa3f69ee6189aed9b48fc"),
}


@pytest.mark.parametrize("grid", sorted(PRICE_SHA256))
def test_prices_match_pinned_digest(grid):
    lines, digest = PRICE_SHA256[grid]
    assert hashlib.sha256("\n".join(lines()).encode()).hexdigest() == digest


def test_bw_lat_refuses_a_third_dimension():
    topo = Topology(TopologyKind.TORUS_2D, 2, 2, 62e9, 31e9, 1e-6, 2e-6)
    assert topo.bw_lat(1) == (62e9, 1e-6) and topo.bw_lat(2) == (31e9, 2e-6)
    with pytest.raises(ValueError, match="dimension must be 1 or 2, got 3"):
        topo.bw_lat(3)


def test_near_square_dims_refuses_no_npus():
    with pytest.raises(ValueError, match="npus must be >= 1"):
        near_square_dims(0)
