"""Tests for the Section II-D optimal assignment (Lemma 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assignment import max_served, optimal_assignment
from repro.network.validate import validate_deployment
from tests.conftest import make_line_instance


class TestOptimalAssignment:
    def test_empty_placements(self):
        problem = make_line_instance()
        dep = optimal_assignment(problem.graph, problem.fleet, {})
        assert dep.served_count == 0

    def test_single_uav_capacity_binds(self):
        problem = make_line_instance(
            num_locations=3, users_per_location=4, capacities=(2, 9, 9)
        )
        dep = optimal_assignment(problem.graph, problem.fleet, {0: 0})
        assert dep.served_count == 2  # capacity 2 < 4 users beneath

    def test_single_uav_coverage_binds(self):
        problem = make_line_instance(
            num_locations=3, users_per_location=4, capacities=(9, 9, 9)
        )
        dep = optimal_assignment(problem.graph, problem.fleet, {0: 0})
        # Ground radius = sqrt(500^2 - 300^2) = 400 m < 500 m spacing, so a
        # UAV over location 0 covers only its own 4 users.
        assert dep.served_count == 4

    def test_user_served_at_most_once(self):
        problem = make_line_instance()
        placements = {k: k for k in range(problem.num_uavs)}
        dep = optimal_assignment(problem.graph, problem.fleet, placements)
        # dict keys are unique by construction; also validate fully:
        validate_deployment(problem.graph, problem.fleet, dep,
                            require_connected=False)

    def test_rejects_bad_indices(self):
        problem = make_line_instance()
        with pytest.raises(IndexError):
            optimal_assignment(problem.graph, problem.fleet, {99: 0})
        with pytest.raises(IndexError):
            optimal_assignment(problem.graph, problem.fleet, {0: 99})

    def test_lemma1_optimality_brute_force(self):
        """Cross-check the max-flow value against brute-force enumeration
        of all feasible assignments on a tiny overlapping instance."""
        problem = make_line_instance(
            num_locations=3, users_per_location=2,
            capacities=(1, 2, 1), spacing=300.0,  # overlapping coverage
        )
        graph, fleet = problem.graph, problem.fleet
        placements = {0: 0, 1: 1, 2: 2}
        flow_value = max_served(graph, fleet, placements)

        coverable = {
            k: set(graph.coverable_users(loc, fleet[k]))
            for k, loc in placements.items()
        }
        best = 0
        n = graph.num_users
        options = []  # per user: list of (uav or None)
        for u in range(n):
            opts = [None] + [k for k in placements if u in coverable[k]]
            options.append(opts)
        for combo in itertools.product(*options):
            loads: dict = {}
            ok = True
            for u, k in enumerate(combo):
                if k is None:
                    continue
                loads[k] = loads.get(k, 0) + 1
                if loads[k] > fleet[k].capacity:
                    ok = False
                    break
            if ok:
                best = max(best, sum(1 for k in combo if k is not None))
        assert flow_value == best

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_instances_match_incremental(self, seed):
        """optimal_assignment (Dinic) and CoverageObjective (incremental
        augmentation) must agree on random sub-fleets."""
        from tests.reference.fnw import CoverageObjective

        problem = make_line_instance(
            num_locations=5, users_per_location=3,
            capacities=(1, 2, 3, 2, 1), spacing=350.0,
        )
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 5))
        uavs = rng.choice(problem.num_uavs, size=size, replace=False)
        locs = rng.choice(problem.num_locations, size=size, replace=False)
        placements = {int(k): int(j) for k, j in zip(uavs, locs)}
        flow = max_served(problem.graph, problem.fleet, placements)
        objective = CoverageObjective(problem.graph, problem.fleet)
        assert flow == objective.value(list(placements.items()))

    def test_capacity_zero_uav_serves_nobody(self):
        problem = make_line_instance(capacities=(0, 4, 4, 4, 4))
        dep = optimal_assignment(problem.graph, problem.fleet, {0: 0})
        assert dep.served_count == 0
