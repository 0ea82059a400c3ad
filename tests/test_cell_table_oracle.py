"""Columnar demand cells against the ``DemandCell`` lists they replaced.

:func:`aggregate_users` and :func:`singleton_cells` return a
:class:`CellTable`, and a tile carve slices the global table with one
:meth:`CellTable.take`.  ``tests/reference/cells.py`` keeps the functions
that returned one :class:`DemandCell` per cell and the carve that
renumbered each tile cell with ``dataclasses.replace``, verbatim; the
table's :meth:`CellTable.to_cells` must equal them field for field, on the
dense-id path, on the wide-span ``np.unique`` path, and on every tile of
2x2 and 3x2 grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.area import DisasterArea
from repro.network.users import UserTable
from repro.scenario.tiling import carve_tiles
from repro.workload.aggregate import (
    CellCoverageGraph,
    CellTable,
    aggregate_problem,
    aggregate_users,
    singleton_cells,
)
from repro.workload.fat_tailed import FatTailedWorkload
from repro.workload.scenarios import paper_scenario
from tests.reference.cells import (
    list_aggregate_users,
    list_singleton_cells,
    replace_carve,
)

FIELDS = ("index", "x", "y", "radius_m", "min_rate_bps", "demand", "members")


def assert_same_cells(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in FIELDS:
            assert getattr(g, name) == getattr(w, name), (name, g, w)
            assert type(getattr(g, name)) is type(getattr(w, name)), name
        assert g == w


def mixed_population(seed: int, count: int = 4000) -> UserTable:
    workload = FatTailedWorkload(
        rate_classes=((0.7, 2_000.0), (0.2, 64_000.0), (0.1, 2.5e6))
    )
    return workload.generate(DisasterArea(3000.0, 3000.0), count, seed=seed)


@pytest.mark.parametrize("cell_size_m", [1.0, 90.0, 150.0, 4000.0])
@pytest.mark.parametrize("seed", range(3))
def test_dense_id_cells_equal_the_cell_list(seed, cell_size_m):
    table = mixed_population(seed)
    assert_same_cells(aggregate_users(table, cell_size_m).to_cells(),
                      list_aggregate_users(table, cell_size_m))


@pytest.mark.parametrize("seed", range(3))
def test_wide_span_cells_equal_the_cell_list(seed):
    """Users ~10^9 m apart on 1 m cells take the ``np.unique`` path."""
    rng = np.random.default_rng(seed)
    xy = np.concatenate([rng.uniform(-1.0e9, 1.0e9, size=(300, 2)),
                         rng.uniform(0.0, 3.0, size=(60, 2))])
    table = UserTable(xy, rng.choice([2_000.0, 3.0e6], size=len(xy)))
    cells = aggregate_users(table, 1.0)
    assert len(cells) < len(table)  # the small square shares cells
    assert_same_cells(cells.to_cells(), list_aggregate_users(table, 1.0))


@pytest.mark.parametrize("seed", range(3))
def test_singleton_cells_equal_the_cell_list(seed):
    table = mixed_population(seed, count=500)
    assert_same_cells(singleton_cells(table).to_cells(),
                      list_singleton_cells(table))


def test_no_users_no_cells():
    empty = UserTable.of([])
    assert aggregate_users(empty, 100.0).to_cells() == \
        list_aggregate_users(empty, 100.0) == []
    assert singleton_cells(empty).to_cells() == []
    assert len(aggregate_users(empty, 100.0)) == 0


@pytest.mark.parametrize("seed", range(3))
def test_take_equals_the_replace_carve(seed):
    """Any index order, repeats excluded, as a tile's node map."""
    table = mixed_population(seed)
    cells = aggregate_users(table, 150.0)
    want = list_aggregate_users(table, 150.0)
    rng = np.random.default_rng(seed)
    for size in (0, 1, len(cells) // 3, len(cells)):
        index = rng.permutation(len(cells))[:size]
        assert_same_cells(cells.take(index).to_cells(),
                          replace_carve(want, index.tolist()))


@pytest.mark.parametrize("grid", [(2, 2), (3, 2)])
@pytest.mark.parametrize("cell_size_m", [None, 150.0])
@pytest.mark.parametrize("seed", range(2))
def test_every_tile_equals_the_replace_carve(seed, cell_size_m, grid):
    problem = aggregate_problem(
        paper_scenario(num_users=3000, num_uavs=12, scale="bench",
                       seed=seed),
        cell_size_m,
    )
    users = paper_scenario(num_users=3000, num_uavs=12, scale="bench",
                           seed=seed).graph.user_table()
    want = (list_singleton_cells(users) if cell_size_m is None
            else list_aggregate_users(users, cell_size_m))
    assert_same_cells(problem.graph.cells, want)
    solved = 0
    for tile in carve_tiles(problem, grid, overlap_m=300.0):
        if tile.problem is None:
            continue
        solved += 1
        graph = tile.problem.graph
        assert isinstance(graph, CellCoverageGraph)
        assert_same_cells(graph.cells,
                          replace_carve(want, list(tile.node_map)))
        np.testing.assert_array_equal(graph.cell_demands,
                                      [want[i].demand for i in tile.node_map])
        np.testing.assert_array_equal(graph.cell_radii,
                                      [want[i].radius_m for i in tile.node_map])
    assert solved >= 2


def test_table_of_a_cell_list_round_trips():
    cells = list_aggregate_users(mixed_population(5, count=800), 200.0)
    table = CellTable.of(cells)
    assert CellTable.of(table) is table
    assert_same_cells(table.to_cells(), cells)


@pytest.mark.parametrize("bad,match", [
    (dict(demand=[0]), "demand must be >= 1"),
    (dict(radius_m=[-1.0]), "radius must be non-negative"),
    (dict(member_starts=[0, 2]), "member lists disagree"),
    (dict(member_order=[0, 1]), "member lists disagree"),
    (dict(min_rate_bps=[1.0, 2.0]), "disagree on the cell count"),
])
def test_table_rejects_inconsistent_columns(bad, match):
    columns = dict(xy=[[0.0, 0.0]], radius_m=[0.0], min_rate_bps=[1.0],
                   demand=[1], member_order=[0], member_starts=[0, 1])
    columns.update(bad)
    with pytest.raises(ValueError, match=match):
        CellTable(**columns)
