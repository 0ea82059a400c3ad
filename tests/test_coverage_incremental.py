"""Incremental coverage updates and batched coverage bitsets.

The dynamic engine's warm path depends on two equivalences pinned here:

* ``SolverContext.updated`` (hop matrix reused, user bitsets rebuilt) is
  bit-identical to a cold ``from_problem`` on an equivalent graph;
* the all-locations coverage bits (``coverage_bits_matrix``) are
  bit-identical to stacking the per-location ``coverable_bits`` rows.
"""

import numpy as np
import pytest

from repro.core.context import SolverContext
from repro.core.problem import ProblemInstance
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.users import User
from repro.scenario.spec import ScenarioSpec
from repro.workload.aggregate import aggregate_problem


def build_problem(seed=3, num_users=60, num_uavs=4):
    return ScenarioSpec(
        name="inc", scale="small", num_users=num_users, num_uavs=num_uavs,
        seed=seed,
    ).build()


def fresh_graph(graph, users):
    return CoverageGraph(
        users=list(users), locations=graph.locations,
        uav_range_m=graph.uav_range_m, channel=graph.channel,
        bandwidth_hz=graph.bandwidth_hz,
    )


def shuffled_users(graph, seed):
    rng = np.random.default_rng(seed)
    lo, hi = graph.locations[0], graph.locations[-1]
    span = max(abs(hi.x - lo.x), 1000.0)
    return [
        User(
            Point3D(float(rng.uniform(0, span)),
                    float(rng.uniform(0, span)), 0.0),
            u.min_rate_bps,
        )
        for u in graph.users
    ]


def assert_contexts_identical(a, b):
    assert a.radio_keys == b.radio_keys
    assert a.fleet_radio_index == b.fleet_radio_index
    assert a.capacities == b.capacities
    assert a.num_users == b.num_users
    np.testing.assert_array_equal(a.hop_matrix, b.hop_matrix)
    np.testing.assert_array_equal(a.coverage_bits, b.coverage_bits)
    np.testing.assert_array_equal(a.coverage_counts, b.coverage_counts)
    np.testing.assert_array_equal(a.best_counts, b.best_counts)


class TestContextUpdated:
    def test_updated_matches_cold_rebuild(self):
        problem = build_problem()
        context = SolverContext.from_problem(problem)
        graph = problem.graph

        new_users = shuffled_users(graph, seed=9)
        warm_graph = graph.with_users(new_users)
        warm = context.updated(
            ProblemInstance(graph=warm_graph, fleet=problem.fleet)
        )
        cold = SolverContext.from_problem(ProblemInstance(
            graph=fresh_graph(graph, new_users), fleet=problem.fleet
        ))
        assert_contexts_identical(warm, cold)

    def test_updated_with_fewer_users(self):
        problem = build_problem()
        context = SolverContext.from_problem(problem)
        graph = problem.graph
        kept = graph.users[::3]
        warm = context.updated(ProblemInstance(
            graph=graph.with_users(kept), fleet=problem.fleet
        ))
        cold = SolverContext.from_problem(ProblemInstance(
            graph=fresh_graph(graph, kept), fleet=problem.fleet
        ))
        assert_contexts_identical(warm, cold)

    def test_updated_rejects_changed_locations(self):
        problem = build_problem()
        context = SolverContext.from_problem(problem)
        graph = problem.graph
        smaller = CoverageGraph(
            users=graph.users, locations=graph.locations[:-1],
            uav_range_m=graph.uav_range_m, channel=graph.channel,
            bandwidth_hz=graph.bandwidth_hz,
        )
        with pytest.raises(ValueError, match="locations"):
            context.updated(
                ProblemInstance(graph=smaller, fleet=problem.fleet)
            )


class TestUserMutation:
    def test_replace_users_invalidates_coverage_only(self):
        problem = build_problem()
        graph = problem.graph
        hop_before = graph.hop_matrix()
        uav = problem.fleet[0]
        before = graph.coverable_users(0, uav)
        graph.replace_users(shuffled_users(graph, seed=4))
        assert graph.hop_matrix() is hop_before
        after = graph.coverable_users(0, uav)
        reference = fresh_graph(graph, graph.users).coverable_users(0, uav)
        assert after == reference
        assert isinstance(before, list)

    def test_move_users_matches_rebuilt_users(self):
        problem = build_problem()
        graph = problem.graph
        rng = np.random.default_rng(8)
        xy = graph._user_xy + rng.normal(
            scale=40.0, size=(len(graph.users), 2)
        )
        graph.move_users(xy)
        np.testing.assert_allclose(graph._user_xy, xy)
        uav = problem.fleet[0]
        reference = fresh_graph(graph, graph.users)
        for v in (0, len(graph.locations) // 2, len(graph.locations) - 1):
            assert graph.coverable_users(v, uav) \
                == reference.coverable_users(v, uav)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_row_edits_match_fresh_graph(self, seed):
        """Seeded add/remove/move sequences leave the user arrays and
        every coverage query equal to a graph built from the final users,
        with queries interleaved so stale cache entries would show."""
        problem = build_problem(seed=seed, num_uavs=3)
        graph = problem.graph.with_users(problem.graph.users)
        rng = np.random.default_rng(seed)
        for step in range(40):
            op = rng.integers(3) if graph.num_users else 0
            if op == 0:
                x, y = rng.uniform(0.0, 1000.0, size=2)
                graph.add_user(User(Point3D(float(x), float(y), 0.0),
                                    float(rng.choice([2000.0, 3.0e6]))))
            elif op == 1:
                graph.remove_user(int(rng.integers(graph.num_users)))
            else:
                graph.move_users(graph._user_xy + rng.normal(
                    scale=30.0, size=(graph.num_users, 2)
                ))
            uav = problem.fleet[step % len(problem.fleet)]
            graph.coverable_users(step % graph.num_locations, uav)
            if step % 5 == 0:
                graph.coverage_bits_matrix(uav)
        reference = fresh_graph(graph, graph.users)
        np.testing.assert_array_equal(graph._user_xy, reference._user_xy)
        np.testing.assert_array_equal(
            graph._user_min_rate, reference._user_min_rate
        )
        for uav in problem.fleet:
            np.testing.assert_array_equal(
                graph.coverage_bits_matrix(uav),
                reference.coverage_bits_matrix(uav),
            )
            for v in range(graph.num_locations):
                assert graph.coverable_users(v, uav) \
                    == reference.coverable_users(v, uav)

    def test_move_users_rejects_shape_mismatch(self):
        graph = build_problem().graph
        with pytest.raises(ValueError, match="shape"):
            graph.move_users(np.zeros((3, 2)))

    def test_with_users_shares_location_structure(self):
        problem = build_problem()
        graph = problem.graph
        hop = graph.hop_matrix()
        clone = graph.with_users(graph.users[:10])
        assert clone.location_graph is graph.location_graph
        assert clone.hop_matrix() is hop
        assert clone.num_users == 10
        # The original is untouched.
        assert graph.num_users == 60


class TestBatchedBits:
    def test_matrix_matches_per_location_bits(self):
        problem = build_problem(seed=5, num_uavs=6)
        graph = problem.graph
        reference = fresh_graph(graph, graph.users)
        for uav in problem.fleet:
            matrix = graph.coverage_bits_matrix(uav)
            stacked = np.stack([
                reference.coverable_bits(v, uav)
                for v in range(graph.num_locations)
            ])
            np.testing.assert_array_equal(matrix, stacked)

    def test_matrix_seeds_per_location_caches(self):
        problem = build_problem()
        graph = problem.graph
        uav = problem.fleet[0]
        graph.coverage_bits_matrix(uav)
        reference = fresh_graph(graph, graph.users)
        for v in (0, 7, graph.num_locations - 1):
            assert graph.coverable_users(v, uav) \
                == reference.coverable_users(v, uav)

    def test_blocked_kernel_identical(self, monkeypatch):
        problem = build_problem()
        graph = problem.graph
        uav = problem.fleet[0]
        whole = graph.coverage_bits_matrix(uav)
        # One location per kernel block: the path large m * n takes.
        monkeypatch.setattr(CoverageGraph, "_KERNEL_PAIRS", 1)
        blocked = fresh_graph(graph, graph.users)
        np.testing.assert_array_equal(
            whole, blocked.coverage_bits_matrix(uav)
        )

    def test_cell_graph_matrix_matches_per_location_bits(self):
        problem = build_problem()
        cells = aggregate_problem(problem, cell_size_m=150.0)
        graph = cells.graph
        uav = problem.fleet[0]
        stacked = np.stack([
            graph.coverable_bits(v, uav)
            for v in range(graph.num_locations)
        ])
        matrix = graph.coverage_bits_matrix(uav)
        np.testing.assert_array_equal(matrix, stacked)

    def test_empty_user_set(self):
        problem = build_problem()
        graph = problem.graph.with_users([])
        uav = problem.fleet[0]
        matrix = graph.coverage_bits_matrix(uav)
        assert matrix.shape[0] == graph.num_locations
        assert matrix.sum() == 0
