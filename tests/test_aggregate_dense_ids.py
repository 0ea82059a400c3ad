"""Dense-id aggregation against the ``np.unique`` aggregation it replaced.

:func:`aggregate_users` bins users by dense cell ids (a ``bincount`` over
the grid-key span, compacted by a cumsum, then one stable sort for the
members).  The reference below is the earlier implementation, copied
verbatim: a 2-D ``np.unique`` over the grid keys, then an argsort and a
``searchsorted`` for the members, read from :class:`User` objects.  Both
must give identical cells, field for field, over fat-tailed, uniform and
mixed-QoS users, from 1 to 10^5 users, and cell sizes from 1 m to wider
than the area.

The cell/tile build must not create a :class:`User` or a
:class:`DemandCell` object at all; the last test counts them.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.geometry.area import DisasterArea
from repro.network.users import User, UserTable, users_from_points
from repro.scenario.spec import ScenarioSpec
from repro.scenario.tiling import carve_tiles
from repro.workload.aggregate import DemandCell, aggregate_users
from repro.workload.fat_tailed import FatTailedWorkload
from repro.workload.uniform import UniformWorkload


def unique_aggregate_users(users: list, cell_size_m: float) -> list:
    """The historical ``aggregate_users``: ``np.unique(axis=0)`` plus an
    argsort and ``searchsorted``, over a :class:`User` list."""
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    if not users:
        return []
    xy = np.array(
        [[u.position.x, u.position.y] for u in users], dtype=float
    ).reshape(len(users), 2)
    rates = np.array([u.min_rate_bps for u in users], dtype=float)
    keys = np.floor_divide(xy, float(cell_size_m)).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    num_cells = len(uniq)
    counts = np.bincount(inverse, minlength=num_cells)
    cx = np.bincount(inverse, weights=xy[:, 0], minlength=num_cells) / counts
    cy = np.bincount(inverse, weights=xy[:, 1], minlength=num_cells) / counts
    spread = np.hypot(xy[:, 0] - cx[inverse], xy[:, 1] - cy[inverse])
    radius = np.zeros(num_cells, dtype=float)
    np.maximum.at(radius, inverse, spread)
    min_rate = np.zeros(num_cells, dtype=float)
    np.maximum.at(min_rate, inverse, rates)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(num_cells))
    bounds = np.append(starts, len(order))
    cells = []
    for c in range(num_cells):
        members = tuple(int(u) for u in order[bounds[c]:bounds[c + 1]])
        cells.append(DemandCell(
            index=c, x=float(cx[c]), y=float(cy[c]),
            radius_m=float(radius[c]), min_rate_bps=float(min_rate[c]),
            demand=int(counts[c]), members=members,
        ))
    return cells


FIELDS = ("index", "x", "y", "radius_m", "min_rate_bps", "demand", "members")

AREA = DisasterArea(3000.0, 3000.0)

WORKLOADS = {
    "fat-tailed": FatTailedWorkload(),
    "uniform": UniformWorkload(),
    "mixed-qos": FatTailedWorkload(
        rate_classes=((0.7, 2_000.0), (0.2, 64_000.0), (0.1, 2.5e6))
    ),
}

#: 1 m cells are far finer than the users (the span fallback), 4000 m
#: cells are wider than the 3 km area (one cell).
CELL_SIZES_M = (1.0, 150.0, 1000.0, 4000.0)


def assert_same_cells(table: UserTable, cell_size_m: float,
                      users: "list | None" = None) -> list:
    """Identical cells from both; ``users`` is ``table.to_users()`` when
    the caller already has it."""
    got = aggregate_users(table, cell_size_m).to_cells()
    want = unique_aggregate_users(
        table.to_users() if users is None else users, cell_size_m
    )
    assert len(got) == len(want)
    if got != want:  # DemandCell equality compares every field
        for g, w in zip(got, want):
            for name in FIELDS:
                assert getattr(g, name) == getattr(w, name), (name, g, w)
    return got


@pytest.fixture(scope="module")
def populations():
    """(kind, count) -> (table, table.to_users()), generated once."""
    cache: dict = {}

    def get(kind: str, count: int) -> tuple:
        if (kind, count) not in cache:
            table = WORKLOADS[kind].generate(AREA, count, seed=3)
            cache[kind, count] = (table, table.to_users())
        return cache[kind, count]

    return get


@pytest.mark.parametrize("cell_size_m", CELL_SIZES_M)
@pytest.mark.parametrize("count", (1, 100_000))
@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_dense_ids_match_unique_aggregation(kind, count, cell_size_m,
                                           populations):
    table, users = populations(kind, count)
    cells = assert_same_cells(table, cell_size_m, users)
    assert sum(c.demand for c in cells) == count


@pytest.mark.parametrize("seed", range(6))
def test_dense_ids_match_on_signed_and_repeated_points(seed):
    """Negative coordinates, users on bin edges and duplicate points."""
    rng = np.random.default_rng(seed)
    edges = rng.integers(-8, 8, size=(40, 2)) * 50.0
    xy = np.concatenate([
        rng.uniform(-400.0, 400.0, size=(160, 2)), edges, edges[:10],
    ])
    rates = rng.choice([2_000.0, 3.0e6], size=len(xy))
    for cell_size_m in (1.0, 50.0, 75.0, 1000.0):
        assert_same_cells(UserTable(xy, rates), cell_size_m)


def test_far_apart_users_aggregate_in_bounded_memory():
    """Two users 10^12 m apart with 1 m cells: a key span of 10^12 bins,
    which a dense ``bincount`` must not allocate."""
    users = users_from_points([(0.0, 0.0), (1.0e12, 5.0), (1.0e12, 5.5)])
    tracemalloc.start()
    try:
        cells = aggregate_users(users, 1.0).to_cells()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [c.members for c in cells] == [(0,), (1, 2)]
    assert cells == unique_aggregate_users(users, 1.0)


def test_far_apart_users_on_both_axes_match():
    """Spread over 2x10^9 m on both axes with 1 m cells: the rank-pair
    fallback, with every user in its own cell."""
    rng = np.random.default_rng(4)
    xy = rng.uniform(-1.0e9, 1.0e9, size=(500, 2))
    assert_same_cells(UserTable(xy), 1.0)


def test_cell_size_too_fine_for_coordinates_is_rejected():
    with pytest.raises(ValueError, match="too far out"):
        aggregate_users(UserTable([[0.0, 0.0], [1.0e300, 0.0]]), 1.0)


def test_cell_and_tile_build_makes_no_user_objects(monkeypatch):
    """``ScenarioSpec.build`` of a cells + tiles spec, and carving every
    tile, go from the generator's columns to cells and tiles without a
    single :class:`User` or :class:`DemandCell`."""
    calls = []
    cell_calls = []
    original = User.__post_init__
    original_cell = DemandCell.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    def counting_cell(self):
        cell_calls.append(1)
        original_cell(self)

    monkeypatch.setattr(User, "__post_init__", counting)
    monkeypatch.setattr(DemandCell, "__post_init__", counting_cell)
    users_from_points([(1.0, 2.0)])
    assert calls == [1]  # the counter sees User construction
    calls.clear()
    DemandCell(index=0, x=0.0, y=0.0, radius_m=0.0, min_rate_bps=1.0,
               demand=1, members=(0,))
    assert cell_calls == [1]  # and DemandCell construction
    cell_calls.clear()

    spec = ScenarioSpec(
        name="columns", scale="bench", num_users=5_000, num_uavs=8, seed=5,
        aggregation="cells", cell_size_m=150.0, tiles="2x2",
        tile_overlap_m=300.0, tile_index=0,
    )
    tile = spec.build()
    problem = spec.with_overrides(tile_index=None).build()
    tiles = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
    per_user = spec.with_overrides(
        aggregation="users", cell_size_m=None, tile_index=1
    ).build()
    assert tile.graph.num_users > 0 and per_user.graph.num_users > 0
    assert sum(t.demand_units for t in tiles) == spec.num_users
    assert calls == []
    assert cell_calls == []
