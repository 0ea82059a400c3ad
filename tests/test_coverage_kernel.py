"""The coverage kernel against the per-location path it replaced.

``CoverageGraph`` answers every coverage query from one kernel over a
block of locations (dense padded ground distance, 3-D range test, path
loss and rate test on the in-range pairs).  The reference below is the
earlier per-location path — a per-user spatial hash, then the exact range
and rate tests on the hash's candidates — copied verbatim, for both the
per-user graph and the padded demand-cell graph.  Over seeded random
instances the kernel must give identical coverage lists, bitsets, bits
matrices, coverage weights and ``SolverContext`` fields.

The instances are built to reach the corners the paper presets never
do: radios differing in range, power and gain, several altitude layers,
users exactly on a radio's 3-D range, per-user minimum rates that reject
in-range users, an empty user set, and coarse and singleton cells.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import User
from repro.util.bits import pack_indices
from repro.workload.aggregate import (
    CellCoverageGraph,
    aggregate_users,
    singleton_cells,
)
from tests.reference.spatial_hash import SpatialHash

SIDE_M = 1800.0
LAYERS_M = (120.0, 300.0, 450.0)
BOUNDARY_RANGE_M = 500.0
# Ground offsets whose 3-D distance from a 300 m location is exactly
# 500 m (3-4-5 triangles): hypot(400, 300) == 500 in IEEE arithmetic.
BOUNDARY_OFFSETS = ((400.0, 0.0), (-240.0, 320.0), (0.0, -400.0))


class ReferenceCoverage:
    """The per-location spatial-hash coverage path, verbatim."""

    def _install_users(self, users: list) -> None:
        super()._install_users(users)
        self._user_hash = SpatialHash(
            [u.ground for u in self.users],
            cell_size=max(self.uav_range_m, 1.0),
        ) if self.users else None

    def coverable_users(self, loc_index: int, uav: UAV) -> list:
        key = (loc_index, self._radio_key(uav))
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        loc: Point3D = self.locations[loc_index]
        if self._user_hash is None:
            self._coverage_cache[key] = []
            return []
        # Range pre-filter on ground projection, then exact 3-D distance and
        # rate check, vectorised over the candidate users.
        max_ground = uav.user_range_m  # 3-D range implies ground range <= it
        candidates = self._user_hash.query_disc(loc.ground(), max_ground)
        if not candidates:
            self._coverage_cache[key] = []
            return []
        idx = np.array(sorted(candidates), dtype=int)
        dx = self._user_xy[idx, 0] - loc.x
        dy = self._user_xy[idx, 1] - loc.y
        horiz = np.hypot(dx, dy)
        dist3 = np.hypot(horiz, loc.z)
        in_range = dist3 <= uav.user_range_m
        idx = idx[in_range]
        if idx.size == 0:
            self._coverage_cache[key] = []
            return []
        horiz = horiz[in_range]
        pl = self.channel.pathloss_vector_db(horiz, loc.z)
        snr_db_arr = uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db_arr / 10.0))
        ok = rates >= self._user_min_rate[idx]
        covered = [int(i) for i in idx[ok]]
        self._coverage_cache[key] = covered
        return covered

    def coverable_array(self, loc_index: int, uav: UAV):
        key = (loc_index, self._radio_key(uav), "np")
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = np.asarray(
                self.coverable_users(loc_index, uav), dtype=np.int64
            )
            self._coverage_cache[key] = cached
        return cached

    def coverable_bits(self, loc_index: int, uav: UAV) -> np.ndarray:
        key = (loc_index, self._radio_key(uav), "bits")
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = pack_indices(
                self.coverable_array(loc_index, uav), self.num_users
            )
            self._coverage_cache[key] = cached
        return cached

    def coverage_bits_matrix(self, uav: UAV) -> np.ndarray:
        words = np.packbits(np.zeros(self.num_users, dtype=bool)).size
        bits = np.zeros((self.num_locations, words), dtype=np.uint8)
        for v in range(self.num_locations):
            bits[v, :] = self.coverable_bits(v, uav)
        return bits


class ReferenceCellCoverage(ReferenceCoverage):
    """The padded demand-cell variant of the reference path, verbatim."""

    def coverable_users(self, loc_index: int, uav: UAV) -> list:
        key = (loc_index, self._radio_key(uav))
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        loc = self.locations[loc_index]
        if self._user_hash is None:
            self._coverage_cache[key] = []
            return []
        # Any cell passing the padded test has a centroid ground distance
        # <= range, so the base prefilter disc still over-covers it.
        candidates = self._user_hash.query_disc(loc.ground(), uav.user_range_m)
        if not candidates:
            self._coverage_cache[key] = []
            return []
        idx = np.array(sorted(candidates), dtype=int)
        dx = self._user_xy[idx, 0] - loc.x
        dy = self._user_xy[idx, 1] - loc.y
        # Pad the centroid distance by the cell radius: the worst-placed
        # member sits at most this far out, and path loss is monotone in
        # ground distance.  radius 0.0 reduces to the per-user test
        # bit-for-bit (x + 0.0 == x in IEEE arithmetic).
        horiz = np.hypot(dx, dy) + self.cell_radii[idx]
        dist3 = np.hypot(horiz, loc.z)
        in_range = dist3 <= uav.user_range_m
        idx = idx[in_range]
        if idx.size == 0:
            self._coverage_cache[key] = []
            return []
        horiz = horiz[in_range]
        pl = self.channel.pathloss_vector_db(horiz, loc.z)
        snr_db = uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        ok = rates >= self._user_min_rate[idx]
        covered = [int(i) for i in idx[ok]]
        self._coverage_cache[key] = covered
        return covered


class ReferenceGraph(ReferenceCoverage, CoverageGraph):
    pass


class ReferenceCellGraph(ReferenceCellCoverage, CellCoverageGraph):
    pass


# -- instances ---------------------------------------------------------------

def make_locations(rng) -> list:
    """A 400 m grid on every altitude layer plus a few locations at
    random altitudes (each its own layer)."""
    grid = np.arange(200.0, SIDE_M, 400.0)
    locations = [
        Point3D(float(x), float(y), z)
        for z in LAYERS_M for x in grid for y in grid
    ]
    for _ in range(4):
        x, y = rng.uniform(0.0, SIDE_M, size=2)
        locations.append(
            Point3D(float(x), float(y), float(rng.uniform(60.0, 500.0)))
        )
    return locations


def make_users(rng, locations: list, num_users: int) -> list:
    """Uniform users, half with minimum rates high enough to reject some
    in-range links, plus users exactly on the 3-D boundary of a 500 m
    radio at a 300 m location."""
    xy = rng.uniform(0.0, SIDE_M, size=(num_users, 2))
    rates = np.where(
        rng.random(num_users) < 0.5,
        rng.uniform(2.0e6, 4.0e6, size=num_users),
        2000.0,
    )
    users = [
        User(Point3D(float(x), float(y), 0.0), float(r))
        for (x, y), r in zip(xy, rates)
    ]
    anchor = next(p for p in locations if p.z == 300.0)
    for dx, dy in BOUNDARY_OFFSETS:
        users.append(
            User(Point3D(anchor.x + dx, anchor.y + dy, 0.0), 2000.0)
        )
    return users


def make_fleet(rng, num_uavs: int = 6) -> list:
    """Radios differing in range, power and gain; the first two share a
    signature and the first has the boundary range."""
    fleet = []
    for k in range(num_uavs):
        fleet.append(UAV(
            capacity=int(rng.integers(5, 40)),
            tx_power_dbm=float(rng.uniform(20.0, 40.0)),
            antenna_gain_db=float(rng.uniform(0.0, 6.0)),
            user_range_m=float(rng.choice([350.0, 500.0, 650.0])),
            name=f"uav-{k}",
        ))
    fleet[0] = UAV(capacity=fleet[0].capacity, tx_power_dbm=36.0,
                   antenna_gain_db=3.0, user_range_m=BOUNDARY_RANGE_M)
    fleet[1] = UAV(capacity=fleet[1].capacity, tx_power_dbm=36.0,
                   antenna_gain_db=3.0, user_range_m=BOUNDARY_RANGE_M)
    return fleet


def make_instance(seed: int, num_users: int = 240) -> tuple:
    rng = np.random.default_rng(seed)
    locations = make_locations(rng)
    users = make_users(rng, locations, num_users)
    fleet = make_fleet(rng)
    return users, locations, fleet


def graph_pair(users, locations) -> tuple:
    """(kernel graph, reference graph) over the same inputs."""
    kw = dict(users=users, locations=locations, uav_range_m=450.0)
    return CoverageGraph(**kw), ReferenceGraph(**kw)


def cell_graph_pair(cells, locations) -> tuple:
    kw = dict(cells=cells, locations=locations, uav_range_m=450.0)
    return CellCoverageGraph(**kw), ReferenceCellGraph(**kw)


# -- assertions --------------------------------------------------------------

def assert_same_coverage(make_pair, fleet) -> None:
    """Every coverage view of the kernel equals the reference.

    ``make_pair`` builds fresh (kernel, reference) graphs; one kernel
    graph answers per-location queries before any bits matrix exists
    (the kernel on one location), another after (rows decoded lazily
    from the cached matrix)."""
    single, reference = make_pair()
    batched, _ = make_pair()
    m = reference.num_locations
    for uav in fleet:
        expected = reference.coverage_bits_matrix(uav)
        for v in range(m):
            want = reference.coverable_users(v, uav)
            assert single.coverable_users(v, uav) == want
            np.testing.assert_array_equal(
                single.coverable_bits(v, uav), reference.coverable_bits(v, uav)
            )
            assert single.coverage_weight(v, uav) \
                == reference.coverage_weight(v, uav)
        np.testing.assert_array_equal(
            batched.coverage_bits_matrix(uav), expected
        )
        for v in range(m):
            assert batched.coverable_users(v, uav) \
                == reference.coverable_users(v, uav)
            np.testing.assert_array_equal(
                batched.coverable_bits(v, uav), expected[v]
            )
            assert batched.coverage_weight(v, uav) \
                == reference.coverage_weight(v, uav)


def assert_same_context(kernel_graph, reference_graph, fleet) -> None:
    got = SolverContext.from_problem(
        ProblemInstance(graph=kernel_graph, fleet=fleet)
    )
    want = SolverContext.from_problem(
        ProblemInstance(graph=reference_graph, fleet=fleet)
    )
    np.testing.assert_array_equal(got.hop_matrix, want.hop_matrix)
    assert got.radio_keys == want.radio_keys
    np.testing.assert_array_equal(got.coverage_bits, want.coverage_bits)
    np.testing.assert_array_equal(got.coverage_counts, want.coverage_counts)
    assert got.fleet_radio_index == want.fleet_radio_index
    assert got.capacities == want.capacities
    assert got.num_users == want.num_users


# -- per-user graphs ---------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_reference(seed):
    users, locations, fleet = make_instance(seed)
    assert_same_coverage(lambda: graph_pair(users, locations), fleet)


@pytest.mark.parametrize("block_pairs", [1, 700])
def test_small_kernel_blocks_match_reference(monkeypatch, block_pairs):
    """Blocks of one location and of a few locations give the same
    answer as one block for the whole layer."""
    monkeypatch.setattr(CoverageGraph, "_KERNEL_PAIRS", block_pairs)
    users, locations, fleet = make_instance(7)
    assert_same_coverage(lambda: graph_pair(users, locations), fleet)
    cells = aggregate_users(users, 250.0)
    assert_same_coverage(lambda: cell_graph_pair(cells, locations), fleet)


@pytest.mark.parametrize("seed", range(3))
def test_context_matches_reference(seed):
    users, locations, fleet = make_instance(seed)
    assert_same_context(*graph_pair(users, locations), fleet)


def test_instances_reach_the_corners():
    """The instances above exercise what they claim to: several
    layers, users exactly at ``dist3 == user_range_m`` and covered, and
    minimum rates that reject in-range users."""
    users, locations, fleet = make_instance(0)
    kernel, _ = graph_pair(users, locations)
    assert len({p.z for p in locations}) > len(LAYERS_M)
    anchor = next(v for v, p in enumerate(locations) if p.z == 300.0)
    loc = locations[anchor]
    boundary = list(range(len(users) - len(BOUNDARY_OFFSETS), len(users)))
    for u in boundary:
        dx = users[u].position.x - loc.x
        dy = users[u].position.y - loc.y
        assert np.hypot(np.hypot(dx, dy), loc.z) == BOUNDARY_RANGE_M
    assert fleet[0].user_range_m == BOUNDARY_RANGE_M
    assert set(boundary) <= set(kernel.coverable_users(anchor, fleet[0]))
    rejected = 0
    for v, loc in enumerate(locations):
        for uav in fleet:
            covered = set(kernel.coverable_users(v, uav))
            for u, user in enumerate(users):
                in_range = user.position.distance_to(loc) <= uav.user_range_m
                rejected += in_range and u not in covered
    assert rejected > 0


def test_empty_user_set():
    _, locations, fleet = make_instance(1)
    assert_same_coverage(lambda: graph_pair([], locations), fleet)
    assert_same_context(*graph_pair([], locations), fleet)
    kernel, _ = graph_pair([], locations)
    assert kernel.coverage_bits_matrix(fleet[0]).shape \
        == (len(locations), 0)


def test_no_locations():
    users, _, fleet = make_instance(2)
    kernel, reference = graph_pair(users, [])
    assert kernel.coverage_bits_matrix(fleet[0]).shape \
        == reference.coverage_bits_matrix(fleet[0]).shape


# -- demand-cell graphs ------------------------------------------------------

@pytest.mark.parametrize("cell_size_m", [None, 90.0, 250.0])
@pytest.mark.parametrize("seed", range(3))
def test_cell_kernel_matches_reference(seed, cell_size_m):
    users, locations, fleet = make_instance(seed, num_users=400)
    cells = (
        singleton_cells(users) if cell_size_m is None
        else aggregate_users(users, cell_size_m)
    )
    if cell_size_m is not None:
        assert any(c.demand > 1 for c in cells)
    assert_same_coverage(lambda: cell_graph_pair(cells, locations), fleet)
    assert_same_context(*cell_graph_pair(cells, locations), fleet)


def test_singleton_cells_equal_per_user_kernel():
    users, locations, fleet = make_instance(4)
    per_user, _ = graph_pair(users, locations)
    cells, _ = cell_graph_pair(singleton_cells(users), locations)
    for uav in fleet:
        np.testing.assert_array_equal(
            cells.coverage_bits_matrix(uav), per_user.coverage_bits_matrix(uav)
        )


# -- user blocks ---------------------------------------------------------------

def assert_user_block_matches(graph, fleet, rng) -> None:
    """``_in_range`` over a block of users, then ``_rate_ok``, equals the
    all-users kernel restricted to that block, pair for pair."""
    locs = np.arange(graph.num_locations)
    blocks = [
        np.sort(rng.choice(graph.num_users, size=size, replace=False))
        for size in (1, 7, graph.num_users // 2)
    ] + [np.array([graph.num_users - 1]), np.zeros(0, dtype=np.int64)]
    for uav in fleet:
        rows, cols, loss = graph._in_range(locs, uav.user_range_m)
        ok = graph._rate_ok(cols, loss, uav)
        for users in blocks:
            keep = np.isin(cols, users)
            got_rows, got_cols, got_loss = graph._in_range(
                locs, uav.user_range_m, users=users
            )
            np.testing.assert_array_equal(got_rows, rows[keep])
            np.testing.assert_array_equal(got_cols, cols[keep])
            np.testing.assert_array_equal(got_loss, loss[keep])
            np.testing.assert_array_equal(
                graph._rate_ok(got_cols, got_loss, uav), ok[keep]
            )


@pytest.mark.parametrize("seed", range(3))
def test_user_block_kernel_matches_all_users(seed):
    users, locations, fleet = make_instance(seed)
    kernel, _ = graph_pair(users, locations)
    assert_user_block_matches(kernel, fleet, np.random.default_rng(seed))


@pytest.mark.parametrize("cell_size_m", [None, 250.0])
def test_user_block_kernel_matches_all_users_on_cells(cell_size_m):
    users, locations, fleet = make_instance(5, num_users=400)
    cells = (
        singleton_cells(users) if cell_size_m is None
        else aggregate_users(users, cell_size_m)
    )
    kernel, _ = cell_graph_pair(cells, locations)
    assert_user_block_matches(kernel, fleet, np.random.default_rng(5))


def test_station_covers_equal_per_location_coverage():
    """One kernel call per radio range over the stations' locations gives
    each station its ``coverable_array``; a user block gives its slice."""
    users, locations, fleet = make_instance(6)
    kernel, _ = graph_pair(users, locations)
    stations = [(v, fleet[v % len(fleet)]) for v in range(0, 40, 3)]
    block = np.arange(10, 60)
    for (loc, uav), cover, sliced in zip(
        stations, kernel.station_covers(stations),
        kernel.station_covers(stations, block),
    ):
        want = kernel.coverable_array(loc, uav)
        np.testing.assert_array_equal(cover, want)
        np.testing.assert_array_equal(sliced, want[np.isin(want, block)])


# -- radio domination ----------------------------------------------------------

def dominance_fleet(rng) -> list:
    """:func:`make_fleet` plus weaker copies of each radio — shorter
    range, lower power or gain, or the same EIRP split differently — so
    the predicate holds for many pairs with distinct radios."""
    fleet = make_fleet(rng)
    weaker = []
    for uav in fleet:
        weaker += [
            UAV(capacity=1, tx_power_dbm=uav.tx_power_dbm,
                antenna_gain_db=uav.antenna_gain_db,
                user_range_m=uav.user_range_m - 150.0),
            UAV(capacity=1, tx_power_dbm=uav.tx_power_dbm - 4.0,
                antenna_gain_db=uav.antenna_gain_db,
                user_range_m=uav.user_range_m),
            UAV(capacity=1, tx_power_dbm=uav.tx_power_dbm + 1.0,
                antenna_gain_db=uav.antenna_gain_db - 1.0,
                user_range_m=uav.user_range_m),
        ]
    return fleet + weaker


def assert_domination_gives_subsets(graph, fleet) -> int:
    """Wherever ``radio_within(a, b)`` holds, ``a``'s cover is a subset
    of ``b``'s at every location; returns how many distinct-radio pairs
    were checked."""
    checked = 0
    for a in fleet:
        bits_a = graph.coverage_bits_matrix(a)
        for b in fleet:
            if not graph.radio_within(a, b):
                continue
            assert not np.any(bits_a & ~graph.coverage_bits_matrix(b))
            for loc in range(0, graph.num_locations, 7):
                assert np.isin(graph.coverable_array(loc, a),
                               graph.coverable_array(loc, b)).all()
            checked += graph.radio_signature(a) != graph.radio_signature(b)
    return checked


@pytest.mark.parametrize("cell_size_m", [False, None, 250.0])
@pytest.mark.parametrize("seed", range(3))
def test_radio_domination_implies_cover_subset(seed, cell_size_m):
    """The stale-gain bound of the lazy greedy rests on this: a dominated
    radio never covers a user (or cell) the dominating one misses, on
    per-user graphs (``False``) and on singleton and coarse cells."""
    users, locations, _ = make_instance(seed, num_users=300)
    fleet = dominance_fleet(np.random.default_rng(seed))
    if cell_size_m is False:
        graph, _ = graph_pair(users, locations)
    else:
        cells = (
            singleton_cells(users) if cell_size_m is None
            else aggregate_users(users, cell_size_m)
        )
        graph, _ = cell_graph_pair(cells, locations)
    assert assert_domination_gives_subsets(graph, fleet) >= len(fleet)


# -- boundary radios -----------------------------------------------------------

def boundary_radio_instance(seed: int) -> tuple:
    """:func:`make_instance` plus users directly below every location of
    the lowest layer (and a few 1 cm beside), and two radios at the
    prefilter's corners: range equal to the lowest layer's altitude
    (ground reach 0 there: only users directly below are covered) and
    range below every location (every layer skipped)."""
    users, locations, fleet = make_instance(seed)
    low = LAYERS_M[0]
    under = [p for p in locations if p.z == low]
    users = users + [
        User(Point3D(p.x, p.y, 0.0), 2000.0) for p in under
    ] + [
        User(Point3D(p.x + 0.01, p.y, 0.0), 2000.0) for p in under[:3]
    ]
    radios = [
        UAV(capacity=9, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=low),
        UAV(capacity=9, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=min(p.z for p in locations) / 2.0),
    ]
    return users, locations, fleet[:2] + radios


@pytest.mark.parametrize("seed", range(3))
def test_boundary_radios_match_reference(seed):
    users, locations, fleet = boundary_radio_instance(seed)
    assert_same_coverage(lambda: graph_pair(users, locations), fleet)
    assert_same_context(*graph_pair(users, locations), fleet)
    kernel, _ = graph_pair(users, locations)
    at_range, below_all = fleet[-2], fleet[-1]
    for v, p in enumerate(locations):
        if p.z == at_range.user_range_m:
            covered = kernel.coverable_users(v, at_range)
            assert covered
            assert {(users[u].position.x, users[u].position.y)
                    for u in covered} == {(p.x, p.y)}
    assert not kernel.coverage_bits_matrix(below_all).any()


@pytest.mark.parametrize("cell_size_m", [None, 90.0])
@pytest.mark.parametrize("seed", range(2))
def test_boundary_radios_match_reference_on_cells(seed, cell_size_m):
    """Padded cells: a radius above the ground reach drops a cell even
    directly below; singleton cells keep the per-user answer."""
    users, locations, fleet = boundary_radio_instance(seed)
    cells = (
        singleton_cells(users) if cell_size_m is None
        else aggregate_users(users, cell_size_m)
    )
    assert_same_coverage(lambda: cell_graph_pair(cells, locations), fleet)
    assert_same_context(*cell_graph_pair(cells, locations), fleet)
    kernel, _ = cell_graph_pair(cells, locations)
    assert not kernel.coverage_bits_matrix(fleet[-1]).any()


# -- the rate test at the SNR floor ------------------------------------------

def test_rate_test_equals_the_rate_expression_at_the_floor():
    """``_rate_ok`` decides pairs away from a user's SNR floor by one
    comparison and the rest by the rate expression; on every pair it
    must equal the expression (``_rate_meets``).  Pairs are placed on
    the floor, within a few ulps and around the band's edges, for users
    whose floor is in range and users without one (zero, tiny and huge
    minimum rates)."""
    rng = np.random.default_rng(11)
    num_users = 60
    rates = np.concatenate([
        rng.uniform(1.0e3, 4.0e6, num_users - 6),
        [0.0, 1e-3, 1.0, 2000.0, 4.0e6, 1e12],
    ])
    xy = rng.uniform(0.0, 1000.0, size=(num_users, 2))
    graph = CoverageGraph(
        users=[User(Point3D(float(x), float(y), 0.0), float(r))
               for (x, y), r in zip(xy, rates)],
        locations=[Point3D(500.0, 500.0, 300.0)], uav_range_m=450.0,
    )
    floor = graph._snr_floor_db()
    assert np.isnan(floor[[-6, -5, -1]]).all()
    assert not np.isnan(floor[:-6]).any() and not np.isnan(floor[-4]).any()
    band = CoverageGraph._SNR_BAND_DB
    for uav in make_fleet(np.random.default_rng(3)):
        line = uav.tx_power_dbm + uav.antenna_gain_db - graph.noise_dbm
        offsets = np.array([0.0, band, -band, 2 * band, -2 * band,
                            0.5 * band, 1e-3, -1e-3, 20.0, -20.0])
        cols = np.repeat(np.arange(num_users), offsets.size + 4)
        base = np.where(np.isnan(floor), 100.0, line - floor)[cols]
        shift = np.tile(np.concatenate([offsets, [0.0] * 4]), num_users)
        loss = base + shift
        # Within a few ulps of the line.
        for i, steps in zip(range(offsets.size, offsets.size + 4),
                            (1, -1, 3, -3)):
            at = np.arange(num_users) * (offsets.size + 4) + i
            loss[at] = loss[at] + steps * np.spacing(loss[at])
        want = graph._rate_meets(cols, loss, uav)
        np.testing.assert_array_equal(graph._rate_ok(cols, loss, uav), want)
        assert want.any() and not want.all()
