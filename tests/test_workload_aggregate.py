"""Unit tests for the demand-cell aggregation layer.

:func:`aggregate_users` must partition the user set deterministically;
every cell's padded geometry (centroid + radius, max member min-rate)
must dominate its members so the cell coverage test is conservative;
:func:`singleton_cells` must be the exact degenerate case the
bit-identity oracles rely on.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.network.users import users_from_points
from repro.workload.aggregate import (
    aggregate_problem,
    aggregate_users,
    singleton_cells,
)
from repro.workload.scenarios import paper_scenario


def _random_users(n: int, extent: float, seed: int):
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, extent, size=(n, 2))
    return users_from_points([(float(x), float(y)) for x, y in xy])


class TestAggregateUsers:
    def test_partition_and_demand_conservation(self):
        users = _random_users(200, 2000.0, seed=1)
        cells = aggregate_users(users, 150.0).to_cells()
        seen: list = []
        for cell in cells:
            assert cell.demand == len(cell.members)
            assert list(cell.members) == sorted(cell.members)
            seen.extend(cell.members)
        assert sorted(seen) == list(range(200))

    def test_cells_indexed_contiguously(self):
        users = _random_users(80, 1200.0, seed=2)
        cells = aggregate_users(users, 100.0).to_cells()
        assert [c.index for c in cells] == list(range(len(cells)))

    def test_deterministic(self):
        users = _random_users(120, 1500.0, seed=3)
        assert aggregate_users(users, 200.0).to_cells() \
            == aggregate_users(users, 200.0).to_cells()

    def test_radius_bounds_member_distance(self):
        users = _random_users(150, 1800.0, seed=4)
        for cell in aggregate_users(users, 250.0).to_cells():
            for i in cell.members:
                p = users[i].position
                d = math.hypot(p.x - cell.x, p.y - cell.y)
                assert d <= cell.radius_m + 1e-9

    def test_min_rate_is_most_demanding_member(self):
        users = _random_users(60, 800.0, seed=5)
        users = [
            type(u)(position=u.position,
                    min_rate_bps=u.min_rate_bps * (1.0 + 0.01 * (i % 7)))
            for i, u in enumerate(users)
        ]
        for cell in aggregate_users(users, 300.0).to_cells():
            member_rates = [users[i].min_rate_bps for i in cell.members]
            assert cell.min_rate_bps == max(member_rates)

    def test_rejects_non_positive_cell_size(self):
        users = _random_users(5, 100.0, seed=6)
        with pytest.raises(ValueError):
            aggregate_users(users, 0.0)


class TestSingletonCells:
    def test_one_cell_per_user_zero_radius(self):
        users = _random_users(40, 600.0, seed=7)
        cells = singleton_cells(users).to_cells()
        assert len(cells) == len(users)
        for i, cell in enumerate(cells):
            assert cell.index == i
            assert cell.members == (i,)
            assert cell.demand == 1
            assert cell.radius_m == 0.0
            p = users[i].position
            assert cell.x == p.x and cell.y == p.y
            assert cell.min_rate_bps == users[i].min_rate_bps


class TestCellCoverageGraph:
    def test_padded_coverage_is_conservative(self):
        """Every member of a coverable cell is individually coverable by
        the same UAV from the same location in the per-user graph."""
        problem = paper_scenario(num_users=150, num_uavs=4, scale="small",
                                 seed=11)
        cell_problem = aggregate_problem(problem, 200.0)
        base, agg = problem.graph, cell_problem.graph
        uav = problem.fleet[0]
        for v in range(problem.num_locations):
            per_user = set(base.coverable_users(v, uav))
            for c in agg.coverable_users(v, uav):
                assert set(agg.cells[c].members) <= per_user

    def test_coverage_weight_counts_demand_units(self):
        problem = paper_scenario(num_users=100, num_uavs=3, scale="small",
                                 seed=12)
        cell_problem = aggregate_problem(problem, 250.0)
        graph = cell_problem.graph
        uav = problem.fleet[0]
        for v in range(problem.num_locations):
            expected = sum(
                int(graph.cell_demands[c])
                for c in graph.coverable_users(v, uav)
            )
            assert graph.coverage_weight(v, uav) == expected

    def test_total_demand(self):
        problem = paper_scenario(num_users=90, num_uavs=3, scale="small",
                                 seed=13)
        cell_problem = aggregate_problem(problem, 150.0)
        assert cell_problem.graph.total_demand == 90


class TestAggregateProblem:
    def test_preserves_fleet_and_locations(self):
        problem = paper_scenario(num_users=70, num_uavs=3, scale="small",
                                 seed=14)
        cell_problem = aggregate_problem(problem, 180.0)
        assert cell_problem.fleet == problem.fleet
        assert cell_problem.graph.locations == problem.graph.locations
        assert cell_problem.graph.uav_range_m == problem.graph.uav_range_m

    def test_none_cell_size_builds_singletons(self):
        problem = paper_scenario(num_users=50, num_uavs=2, scale="small",
                                 seed=15)
        cell_problem = aggregate_problem(problem)
        demands = cell_problem.graph.cell_demands
        assert demands.size == 50
        assert int(demands.max()) == 1

    def test_singleton_coverage_matches_per_user_exactly(self):
        """The degenerate graph's coverable sets coincide with the base
        graph's for every (location, uav) pair — the geometric half of
        the bit-identity guarantee."""
        problem = paper_scenario(num_users=120, num_uavs=4, scale="small",
                                 seed=16)
        agg = aggregate_problem(problem).graph
        base = problem.graph
        for uav in problem.fleet:
            for v in range(problem.num_locations):
                assert list(agg.coverable_users(v, uav)) == list(
                    base.coverable_users(v, uav)
                )
