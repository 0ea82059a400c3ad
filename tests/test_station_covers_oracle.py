"""Direct station covers, the merged-layer kernel and the count-ranked
anchor pool against the code they replaced.

* ``CoverageGraph.station_covers`` tests each station directly against
  the users (or reads a radio's cached bits matrix), without the
  location-level kernel.  The oracle is the earlier loop -- one kernel
  call per radio range, one ``rows == loc`` mask and one single-radio
  ``_rate_ok`` per station -- verbatim, with that ``_rate_ok`` verbatim
  too.  Instances mix radio ranges and EIRPs, put two radios on one
  location, restrict to user blocks (one block per user of a three-layer
  instance among them), place minimum rates inside the +-1e-6 dB band
  around a pair's SNR floor, where the rate expression itself decides,
  and place users exactly on, and a nanometre either side of, a layer's
  3-D range.
* ``CoverageGraph._in_range`` prefilters every layer's locations in one
  pass; the oracle is the earlier per-layer loop, verbatim.
* ``_anchor_pool`` ranks a capped pool by the ``SolverContext``'s
  coverage counts; the oracle is the earlier sort by
  ``graph.coverage_weight``, verbatim, on per-user, singleton-cell and
  demand-cell graphs with tied counts.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.approx import _anchor_pool
from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import User
from repro.workload.aggregate import (
    CellCoverageGraph,
    aggregate_users,
    singleton_cells,
)
from tests.test_coverage_kernel import LAYERS_M, make_fleet, make_instance


# -- the replaced code, verbatim -----------------------------------------------

def reference_rate_ok(graph, cols, loss, uav, need=None):
    if need is None:
        need = loss + graph._snr_floor_db()[cols]
    with np.errstate(invalid="ignore"):
        gap = need - (uav.tx_power_dbm + uav.antenna_gain_db
                      - graph.noise_dbm)
        ok = gap < -graph._SNR_BAND_DB
        unsure = ~(np.abs(gap) > graph._SNR_BAND_DB)
    if unsure.any():
        ok[unsure] = reference_rate_meets(
            graph, cols[unsure], loss[unsure], uav
        )
    return ok


def reference_rate_meets(graph, cols, loss, uav):
    snr_db = uav.tx_power_dbm + uav.antenna_gain_db - loss - graph.noise_dbm
    rates = graph.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
    return rates >= graph._user_min_rate[cols]


def reference_station_covers(graph, stations, users=None):
    by_range: dict = {}
    for i, (_, uav) in enumerate(stations):
        by_range.setdefault(uav.user_range_m, []).append(i)
    covers: list = [None] * len(stations)
    for range_m, members in by_range.items():
        locs = np.array(sorted({stations[i][0] for i in members}),
                        dtype=np.int64)
        rows, cols, loss = graph._in_range(locs, range_m, users)
        for i in members:
            loc, uav = stations[i]
            here = rows == loc
            found = cols[here]
            covers[i] = found[reference_rate_ok(graph, found, loss[here], uav)]
    return covers


def reference_in_range(graph, loc_index, range_m, users=None):
    pad = graph._user_pad()
    user_xy = graph._user_xy
    if users is not None:
        pad, user_xy = pad[users], user_xy[users]
    n = len(user_xy)
    ux, uy = user_xy[:, 0], user_xy[:, 1]
    step = max(1, graph._KERNEL_PAIRS // max(1, n))
    xyz = graph._loc_xyz[loc_index]
    rows_max = min(step, len(loc_index))
    d2_buf, dy2_buf = np.empty((2, rows_max, n))
    kept_buf = np.empty((rows_max, n), dtype=bool)
    parts = []
    for alt in sorted(set(xyz[:, 2].tolist())):
        if range_m < alt:
            continue
        reach = (math.sqrt(max(range_m * range_m - alt * alt, 0.0))
                 + graph._PREFILTER_SLACK_M - pad)
        limit = np.where(reach >= 0.0, reach * reach, -1.0)
        layer = np.flatnonzero(xyz[:, 2] == alt)
        for lo in range(0, layer.size, step):
            block = layer[lo:lo + step]
            d2, dy2 = d2_buf[:block.size], dy2_buf[:block.size]
            np.subtract(ux, xyz[block, 0, None], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(uy, xyz[block, 1, None], out=dy2)
            np.multiply(dy2, dy2, out=dy2)
            kept = np.flatnonzero(np.less_equal(
                np.add(d2, dy2, out=d2), limit, out=kept_buf[:block.size]
            ))
            r = kept // n
            c = kept - r * n
            at = block[r]
            horiz = np.hypot(ux[c] - xyz[at, 0], uy[c] - xyz[at, 1]) \
                + pad[c]
            inside = np.hypot(horiz, alt) <= range_m
            at, c, horiz = at[inside], c[inside], horiz[inside]
            parts.append((
                loc_index[at], c if users is None else users[c],
                graph.channel.pathloss_vector_db(horiz, alt),
            ))
    if len(parts) == 1:
        return parts[0]
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0))
    return tuple(np.concatenate(field) for field in zip(empty, *parts))


def reference_anchor_pool(problem, anchor_candidates, max_anchor_candidates,
                          s):
    if max_anchor_candidates is not None and max_anchor_candidates < s:
        raise ValueError(
            f"max_anchor_candidates = {max_anchor_candidates} is smaller "
            f"than s = {s}: the restricted anchor pool could never host an "
            "anchor subset; raise max_anchor_candidates or lower s"
        )
    if anchor_candidates is not None:
        pool = sorted({int(v) for v in anchor_candidates})
        for v in pool:
            if not (0 <= v < problem.num_locations):
                raise IndexError(f"anchor candidate {v} outside location range")
    else:
        pool = list(range(problem.num_locations))
    if max_anchor_candidates is not None and len(pool) > max_anchor_candidates:
        # Keep the locations that can cover the most users (evaluated with
        # the largest-capacity UAV's radio), ties to lower index.
        strongest = problem.fleet[problem.capacity_order()[0]]
        graph = problem.graph
        pool.sort(key=lambda v: (-graph.coverage_weight(v, strongest), v))
        pool = sorted(pool[:max_anchor_candidates])
    return pool


# -- instances -----------------------------------------------------------------

def stations_of(graph, fleet, rng) -> list:
    """Stations over every layer, radios of every range and EIRP, and one
    location hosting two radios of the same range."""
    locs = rng.choice(graph.num_locations, size=14, replace=False).tolist()
    stations = [(v, fleet[i % len(fleet)]) for i, v in enumerate(locs)]
    twin = next(uav for uav in fleet[1:]
                if uav.user_range_m == stations[0][1].user_range_m
                and uav is not stations[0][1])
    return stations + [(stations[0][0], twin)]


def banded_users(graph, users, stations, rng) -> list:
    """``users`` with minimum rates moved onto (or a hair off) the rate a
    covering station gives them: their SNR floors then sit inside the
    band, on either side of the station's line."""
    nudges = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-7, -1e-7)
    rates = [u.min_rate_bps for u in users]
    placed = set()
    for loc, uav in stations:
        _, cols, loss = graph._in_range(np.array([loc]), uav.user_range_m)
        snr_db = (uav.tx_power_dbm + uav.antenna_gain_db - loss
                  - graph.noise_dbm)
        exact = graph.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        for u, rate in zip(cols.tolist(), exact.tolist()):
            if u not in placed and rng.random() < 0.6:
                placed.add(u)
                rates[u] = rate * (1.0 + nudges[len(placed) % len(nudges)])
    return [User(u.position, float(r)) for u, r in zip(users, rates)]


def band_instance(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    users, locations, fleet = make_instance(seed, num_users=300)
    graph = CoverageGraph(users, locations, 450.0)
    stations = stations_of(graph, fleet, rng)
    users = banded_users(graph, users, stations, rng)
    return CoverageGraph(users, locations, 450.0), stations, rng


def assert_same_covers(got: list, want: list) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        np.testing.assert_array_equal(a, b)


# -- station covers --------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_station_covers_match_the_per_station_loop(seed):
    graph, stations, rng = band_instance(seed)
    band = 0
    for loc, uav in stations:
        rows, cols, loss = graph._in_range(np.array([loc]), uav.user_range_m)
        gap = (loss + graph._snr_floor_db()[cols]
               - (uav.tx_power_dbm + uav.antenna_gain_db - graph.noise_dbm))
        band += int((np.abs(gap) <= graph._SNR_BAND_DB).sum())
    assert band >= 20
    assert_same_covers(graph.station_covers(stations),
                       reference_station_covers(graph, stations))
    blocks = [
        np.sort(rng.choice(graph.num_users, size=size, replace=False))
        for size in (1, 9, graph.num_users // 3)
    ] + [np.array([graph.num_users - 1]), np.zeros(0, dtype=np.int64)]
    for users in blocks:
        assert_same_covers(graph.station_covers(stations, users),
                           reference_station_covers(graph, stations, users))


def test_station_covers_on_cell_graphs():
    users, locations, fleet = make_instance(7, num_users=400)
    rng = np.random.default_rng(7)
    for cells in (singleton_cells(users), aggregate_users(users, 250.0)):
        graph = CellCoverageGraph(cells=cells, locations=locations,
                                  uav_range_m=450.0)
        stations = stations_of(graph, fleet, rng)
        assert_same_covers(graph.station_covers(stations),
                           reference_station_covers(graph, stations))


def test_station_covers_edge_cases():
    graph, stations, _ = band_instance(11)
    assert graph.station_covers([]) == []
    one = stations[:1]
    assert_same_covers(graph.station_covers(one),
                       reference_station_covers(graph, one))
    far = UAV(capacity=5, user_range_m=50.0)
    lone = [(stations[0][0], far), (stations[1][0], far)]
    assert_same_covers(graph.station_covers(lone),
                       reference_station_covers(graph, lone))


def test_one_user_blocks_for_every_user_of_a_layered_instance():
    """The mission's arrival call: one user at a time, every user of a
    seeded instance with locations on three layers and stations on
    each of them."""
    graph, stations, _ = band_instance(5)
    assert {graph._loc_xyz[loc, 2] for loc, _ in stations} >= set(LAYERS_M)
    covered = 0
    for u in range(graph.num_users):
        block = np.array([u])
        got = graph.station_covers(stations, block)
        assert_same_covers(got, reference_station_covers(graph, stations,
                                                         block))
        covered += sum(cover.size for cover in got)
    assert covered == sum(cover.size for cover in
                          reference_station_covers(graph, stations))


def test_users_none_reads_every_user():
    graph, stations, _ = band_instance(6)
    want = reference_station_covers(graph, stations)
    assert_same_covers(graph.station_covers(stations, None), want)
    assert_same_covers(graph.station_covers(stations, users=None), want)
    assert_same_covers(
        graph.station_covers(stations, np.arange(graph.num_users)), want
    )


def range_instance() -> tuple:
    """Users exactly on a layer's 3-D range of a station (Pythagorean
    triples: ``hypot(h, alt) == range`` in IEEE arithmetic) and a
    nanometre inside and outside it, on three layers and two radio
    ranges."""
    triples = ((400.0, 300.0, 500.0), (300.0, 400.0, 500.0),
               (600.0, 250.0, 650.0))
    locations, users, stations = [], [], []
    for i, (h, alt, range_m) in enumerate(triples):
        x0, y0 = 1000.0 + 2000.0 * i, 1000.0
        locations.append(Point3D(x0, y0, alt))
        stations.append((i, UAV(capacity=9, user_range_m=range_m)))
        for reach in (h, h - 1e-9, h + 1e-9):
            for dx, dy in ((reach, 0.0), (0.0, -reach), (-reach, 0.0)):
                users.append(User(Point3D(x0 + dx, y0 + dy, 0.0), 2000.0))
    return users, locations, stations


def test_users_exactly_at_a_layers_range():
    users, locations, stations = range_instance()
    graph = CoverageGraph(users, locations, 450.0)
    want = reference_station_covers(graph, stations)
    # On and inside the range pass, outside fails: 6 of 9 per station.
    assert [cover.size for cover in want] == [6, 6, 6]
    assert_same_covers(graph.station_covers(stations), want)
    for u in range(graph.num_users):
        block = np.array([u])
        assert_same_covers(graph.station_covers(stations, block),
                           reference_station_covers(graph, stations, block))


@pytest.mark.parametrize("cell_size_m", [None, 150.0, 250.0])
def test_station_covers_on_cell_graphs_with_blocks(cell_size_m):
    """Padded cells (radius > 0) and singleton cells (pad 0), over every
    cell, one-cell blocks and a strided block."""
    users, locations, fleet = make_instance(8, num_users=400)
    cells = (singleton_cells(users) if cell_size_m is None
             else aggregate_users(users, cell_size_m))
    graph = CellCoverageGraph(cells=cells, locations=locations,
                              uav_range_m=450.0)
    assert (graph._user_pad() > 0).any() == (cell_size_m is not None)
    stations = stations_of(graph, fleet, np.random.default_rng(8))
    assert_same_covers(graph.station_covers(stations),
                       reference_station_covers(graph, stations))
    blocks = [np.array([c]) for c in range(graph.num_users)] \
        + [np.arange(0, graph.num_users, 3)]
    for block in blocks:
        assert_same_covers(graph.station_covers(stations, block),
                           reference_station_covers(graph, stations, block))


def test_empty_station_list_and_stations_covering_no_user():
    graph, stations, _ = band_instance(12)
    block = np.array([3, 40])
    assert graph.station_covers([]) == []
    assert graph.station_covers([], block) == []
    # A range below every layer, and a range that reaches the ground
    # only far from every user of the block.
    short = UAV(capacity=5, user_range_m=50.0)
    corner = CoverageGraph(graph.users[:2], graph.locations, 450.0)
    lonely = [(stations[0][0], short), (stations[1][0], short)]
    for g, users in ((graph, None), (graph, block), (corner, None)):
        got = g.station_covers(lonely, users)
        assert_same_covers(got, reference_station_covers(g, lonely, users))
        assert all(cover.size == 0 for cover in got)
    empty_users = np.zeros(0, dtype=np.int64)
    got = graph.station_covers(stations, empty_users)
    assert_same_covers(got, reference_station_covers(graph, stations,
                                                     empty_users))
    assert all(cover.size == 0 for cover in got)


def test_cached_radio_matrices_give_the_same_covers(monkeypatch):
    """Stations whose radio has a bits matrix cached read its rows; the
    others are tested directly.  Neither calls the location kernel."""
    graph, stations, _ = band_instance(9)
    want = reference_station_covers(graph, stations)
    for _, uav in stations[::3]:
        graph.coverage_bits_matrix(uav)

    def no_kernel(*args, **kwargs):
        raise AssertionError("station_covers called _in_range")

    monkeypatch.setattr(CoverageGraph, "_in_range", no_kernel)
    assert_same_covers(graph.station_covers(stations), want)


def test_rate_test_takes_one_eirp_per_pair():
    """``_rate_ok`` with a per-pair EIRP array equals the single-radio
    test pair by pair, inside the band too."""
    graph, stations, _ = band_instance(2)
    for loc, uav in stations:
        _, cols, loss = graph._in_range(np.array([loc]), uav.user_range_m)
        eirp = np.full(cols.size, uav.tx_power_dbm + uav.antenna_gain_db)
        np.testing.assert_array_equal(
            graph._rate_ok(cols, loss, eirp),
            reference_rate_ok(graph, cols, loss, uav),
        )
        np.testing.assert_array_equal(
            graph._rate_meets(cols, loss, eirp),
            reference_rate_meets(graph, cols, loss, uav),
        )


# -- the merged-layer kernel -------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_in_range_matches_the_per_layer_loop(seed):
    users, locations, fleet = make_instance(seed)
    rng = np.random.default_rng(seed)
    graphs = [
        CoverageGraph(users, locations, 450.0),
        CellCoverageGraph(cells=aggregate_users(users, 200.0),
                          locations=locations, uav_range_m=450.0),
    ]
    for graph in graphs:
        everywhere = np.arange(graph.num_locations)
        some = np.sort(rng.choice(graph.num_locations, size=9, replace=False))
        for range_m in (100.0, 350.0, 500.0, 650.0, 5000.0):
            for locs in (everywhere, some, some[:1], everywhere[:0]):
                for users_block in (None, np.array([graph.num_users - 1]),
                                    np.arange(0, graph.num_users, 7)):
                    got = graph._in_range(locs, range_m, users_block)
                    want = reference_in_range(graph, locs, range_m,
                                              users_block)
                    for a, b in zip(got, want):
                        assert a.dtype == b.dtype
                        np.testing.assert_array_equal(a, b)


# -- the anchor pool ---------------------------------------------------------------

def tied_instance(seed: int) -> tuple:
    """Users in one corner, so far locations tie at zero coverage, and
    duplicated locations, which tie at any count."""
    rng = np.random.default_rng(seed)
    users, locations, fleet = make_instance(seed, num_users=200)
    xy = rng.uniform(0.0, 700.0, size=(len(users), 2))
    users = [User(Point3D(float(x), float(y), 0.0), u.min_rate_bps)
             for (x, y), u in zip(xy, users)]
    locations = locations + locations[:5]
    return users, locations, fleet


def problems(seed: int) -> list:
    users, locations, fleet = tied_instance(seed)
    return [
        ProblemInstance(CoverageGraph(users, locations, 450.0), fleet),
        ProblemInstance(CellCoverageGraph(
            cells=singleton_cells(users), locations=locations,
            uav_range_m=450.0), fleet),
        ProblemInstance(CellCoverageGraph(
            cells=aggregate_users(users, 150.0), locations=locations,
            uav_range_m=450.0), fleet),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_anchor_pool_matches_the_weight_sort(seed):
    for problem in problems(seed):
        counts = SolverContext.from_problem(problem).counts_for_uav(
            problem.capacity_order()[0]
        )
        assert len(set(counts.tolist())) < len(counts)   # ties present
        for cap in (1, 3, 6, 17, problem.num_locations - 1,
                    problem.num_locations, None):
            for candidates in (None, list(range(0, problem.num_locations, 2))):
                want = reference_anchor_pool(problem, candidates, cap, 1)
                assert _anchor_pool(problem, candidates, cap, 1) == want
                context = SolverContext.from_problem(problem)
                assert _anchor_pool(problem, candidates, cap, 1,
                                    context) == want


def test_anchor_pool_demand_weighted_counts():
    """On a demand-cell graph the ranking is by covered demand, which
    differs from the covered-cell count."""
    problem = problems(0)[2]
    graph, uav = problem.graph, problem.fleet[problem.capacity_order()[0]]
    weights = [graph.coverage_weight(v, uav)
               for v in range(graph.num_locations)]
    cells = [graph.coverage_count(v, uav) for v in range(graph.num_locations)]
    assert weights != cells
    assert _anchor_pool(problem, None, 5, 1) == \
        reference_anchor_pool(problem, None, 5, 1)


def test_anchor_pool_errors_match():
    problem = problems(1)[0]
    with pytest.raises(ValueError, match="smaller than s"):
        _anchor_pool(problem, None, 2, 3)
    with pytest.raises(IndexError, match="outside location range"):
        _anchor_pool(problem, [0, problem.num_locations], 4, 1)


def test_fleet_radios_are_mixed():
    fleet = make_fleet(np.random.default_rng(0))
    assert len({u.user_range_m for u in fleet}) > 1
    assert len({u.tx_power_dbm + u.antenna_gain_db for u in fleet}) > 1
