"""Tests for Algorithm 2 end to end (repro.core.approx)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import appro_alg
from repro.core.exact import exact_optimum_value
from repro.core.problem import ProblemInstance
from repro.core.ratio import approximation_ratio
from repro.network.coverage import CoverageGraph
from repro.network.fleet import heterogeneous_fleet
from repro.network.users import users_from_points
from repro.network.validate import validate_deployment
from tests.conftest import make_line_instance


def random_tiny_problem(seed: int) -> ProblemInstance:
    """3x3 grid, few users, 3-4 heterogeneous UAVs — small enough for the
    brute-force optimum."""
    rng = np.random.default_rng(seed)
    from repro.geometry.area import DisasterArea

    area = DisasterArea(1500.0, 1500.0)
    grid = area.hovering_grid(500.0, 300.0)
    n_users = int(rng.integers(4, 16))
    points = rng.uniform(0, 1500.0, size=(n_users, 2))
    users = users_from_points([(float(x), float(y)) for x, y in points])
    graph = CoverageGraph(users=users, locations=list(grid.centers),
                          uav_range_m=600.0)
    k = int(rng.integers(2, 5))
    fleet = heterogeneous_fleet(k, capacity_min=1, capacity_max=6, seed=rng)
    return ProblemInstance(graph=graph, fleet=fleet)


class TestApproAlgBasics:
    def test_feasible_on_line(self):
        problem = make_line_instance()
        result = appro_alg(problem, s=2)
        validate_deployment(problem.graph, problem.fleet, result.deployment)
        assert result.served == result.deployment.served_count

    def test_served_positive_when_users_coverable(self):
        problem = make_line_instance()
        assert appro_alg(problem, s=2).served > 0

    def test_s_clamped_to_k(self):
        problem = make_line_instance(num_locations=4, users_per_location=2,
                                     capacities=(2, 2))
        result = appro_alg(problem, s=5)  # clamped to K = 2
        validate_deployment(problem.graph, problem.fleet, result.deployment)

    def test_rejects_bad_s(self):
        problem = make_line_instance()
        with pytest.raises(ValueError):
            appro_alg(problem, s=0)

    def test_stats_add_up(self):
        # Two UAVs over five single-user locations never reach the cap of
        # min(8, 5) served, so the served-cap stop never fires.
        problem = make_line_instance(users_per_location=1, capacities=(4, 4))
        result = appro_alg(problem, s=2)
        st_ = result.stats
        assert st_.subsets_bound_skipped == 0
        assert st_.subsets_total == st_.subsets_pruned + st_.subsets_evaluated

    def test_stats_add_up_with_bound_prune(self):
        # The served-cap stop is the one remaining bound-based skip.  20
        # users and five capacity-4 UAVs: the first subset already serves
        # everyone, so the stop skips the other nine.
        problem = make_line_instance()
        result = appro_alg(problem, s=2)
        st_ = result.stats
        assert st_.subsets_bound_skipped > 0
        assert st_.subsets_total == (
            st_.subsets_pruned + st_.subsets_bound_skipped
            + st_.subsets_evaluated
        )

    def test_anchor_pool_restriction(self):
        problem = make_line_instance(num_locations=6, users_per_location=2)
        full = appro_alg(problem, s=2)
        restricted = appro_alg(problem, s=2, max_anchor_candidates=3)
        assert restricted.stats.subsets_total <= full.stats.subsets_total
        validate_deployment(problem.graph, problem.fleet,
                            restricted.deployment)

    def test_explicit_anchor_candidates(self):
        problem = make_line_instance(num_locations=5, users_per_location=2)
        result = appro_alg(problem, s=2, anchor_candidates=[1, 2, 3])
        assert set(result.anchors) <= {1, 2, 3}

    def test_bad_anchor_candidates_rejected(self):
        problem = make_line_instance()
        with pytest.raises(IndexError):
            appro_alg(problem, s=1, anchor_candidates=[99])
        with pytest.raises(ValueError, match="pool"):
            appro_alg(problem, s=3, anchor_candidates=[0, 1])

    def test_progress_callback(self):
        problem = make_line_instance(num_locations=4, users_per_location=2,
                                     capacities=(2, 2, 2))
        calls = []
        result = appro_alg(
            problem, s=2, progress=lambda d, t: calls.append((d, t))
        )
        assert calls, "progress callback never invoked"
        done, total = calls[-1]
        assert done == total
        # One call for the pruned subsets, then one per surviving subset,
        # evaluated or skipped by the served-cap stop.
        st_ = result.stats
        assert len(calls) == (
            (st_.subsets_pruned > 0) + st_.subsets_total - st_.subsets_pruned
        )


class TestFeasibilityProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=12, deadline=None)
    def test_always_feasible(self, seed):
        problem = random_tiny_problem(seed)
        for gain_mode in ("exact", "fast"):
            result = appro_alg(problem, s=2, gain_mode=gain_mode)
            validate_deployment(problem.graph, problem.fleet,
                                result.deployment)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_theorem1_ratio_empirically(self, seed):
        """The delivered solution must meet the Theorem 1 guarantee against
        the exact optimum (it is usually far better)."""
        problem = random_tiny_problem(seed)
        opt = exact_optimum_value(problem)
        result = appro_alg(problem, s=2, gain_mode="exact")
        ratio = approximation_ratio(problem.num_uavs, 2)
        assert result.served >= np.floor(ratio * opt)

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_fast_close_to_exact(self, seed):
        problem = random_tiny_problem(seed)
        exact = appro_alg(problem, s=2, gain_mode="exact").served
        fast = appro_alg(problem, s=2, gain_mode="fast").served
        assert fast >= 0.75 * exact

    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_augment_leftover_never_hurts(self, seed):
        problem = random_tiny_problem(seed)
        strict = appro_alg(problem, s=2, augment_leftover=False).served
        augmented = appro_alg(problem, s=2, augment_leftover=True).served
        assert augmented >= strict


class TestClusteredInstances:
    """A second random-instance family: hotspot-clustered users (the
    evaluation's actual distribution) instead of uniform."""

    @staticmethod
    def clustered_problem(seed: int) -> ProblemInstance:
        from repro.geometry.area import DisasterArea
        from repro.workload.fat_tailed import FatTailedWorkload

        rng = np.random.default_rng(seed)
        area = DisasterArea(1500.0, 1500.0)
        grid = area.hovering_grid(500.0, 300.0)
        workload = FatTailedWorkload(
            num_hotspots=int(rng.integers(1, 4)),
            hotspot_sigma_m=150.0,
            background_fraction=0.1,
        )
        users = workload.generate(area, int(rng.integers(6, 20)), rng)
        graph = CoverageGraph(users=users, locations=list(grid.centers),
                              uav_range_m=600.0)
        fleet = heterogeneous_fleet(int(rng.integers(2, 5)),
                                    capacity_min=1, capacity_max=8, seed=rng)
        return ProblemInstance(graph=graph, fleet=fleet)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_feasible_and_meets_ratio(self, seed):
        problem = self.clustered_problem(seed)
        result = appro_alg(problem, s=2, gain_mode="exact")
        validate_deployment(problem.graph, problem.fleet, result.deployment)
        opt = exact_optimum_value(problem)
        ratio = approximation_ratio(problem.num_uavs, 2)
        assert result.served >= np.floor(ratio * opt)


class TestFallbacks:
    def test_no_users(self):
        problem = make_line_instance(num_locations=3, users_per_location=0,
                                     capacities=(2, 2))
        result = appro_alg(problem, s=2)
        assert result.served == 0
        validate_deployment(problem.graph, problem.fleet, result.deployment)

    def test_k_too_small_for_far_anchors_degrades_s(self):
        """Anchors can never be 2-subsets spanning the line with K = 2;
        feasible 2-subsets exist (adjacent ones), so no fallback needed —
        but with disconnected candidate locations s must degrade."""
        from repro.geometry.point import Point3D
        from repro.network.uav import UAV

        # Two isolated location clusters.
        locations = [
            Point3D(0.0, 0.0, 300.0),
            Point3D(10_000.0, 0.0, 300.0),
        ]
        users = users_from_points([(0.0, 10.0), (10_000.0, 10.0)])
        graph = CoverageGraph(users=users, locations=locations,
                              uav_range_m=600.0)
        fleet = [UAV(capacity=2), UAV(capacity=1)]
        problem = ProblemInstance(graph=graph, fleet=fleet)
        result = appro_alg(problem, s=2)
        assert result.stats.fallback_used
        validate_deployment(problem.graph, problem.fleet, result.deployment)
        assert result.served >= 1

    def test_unreachable_users_ignored(self):
        """Users out of every location's range simply cannot be served."""
        problem = make_line_instance(num_locations=3, users_per_location=2,
                                     capacities=(4, 4, 4))
        from repro.network.users import users_from_points as ufp

        far_users = ufp([(10_000.0, 10_000.0)])
        graph = CoverageGraph(
            users=list(problem.graph.users) + far_users,
            locations=problem.graph.locations,
            uav_range_m=600.0,
        )
        problem2 = ProblemInstance(graph=graph, fleet=problem.fleet)
        result = appro_alg(problem2, s=2)
        assert result.served == 6  # all but the far user
        validate_deployment(problem2.graph, problem2.fleet, result.deployment)


class TestHeterogeneityAwareness:
    def test_big_uav_lands_on_big_pile(self):
        """The headline claim: capacity-aware placement puts the large
        UAV over the dense pile.  Two piles (6 and 2 users) two hops
        apart; capacities (6, 2, irrelevant relay)."""
        from repro.core.problem import ProblemInstance

        points = [(500.0 + 3.0 * i, 0.0) for i in range(6)]
        points += [(1500.0 + 3.0 * i, 0.0) for i in range(2)]
        base = make_line_instance(num_locations=3, users_per_location=1,
                                  capacities=(6, 2, 2))
        graph = CoverageGraph(
            users=users_from_points(points),
            locations=base.graph.locations,
            uav_range_m=600.0,
        )
        problem = ProblemInstance(graph=graph, fleet=base.fleet)
        result = appro_alg(problem, s=1)
        assert result.served == 8
        # UAV 0 (capacity 6) must be at location 0 (the 6-pile).
        assert result.deployment.placements[0] == 0

    def test_small_scenario_beats_random(self, small_scenario):
        from repro.baselines.random_connected import random_connected

        appro = appro_alg(small_scenario, s=2, gain_mode="fast")
        rnd = random_connected(small_scenario, seed=0)
        assert appro.served >= rnd.served_count


class TestContextEquivalence:
    """The vectorised context path (batched prune, warm-start engine) must
    reproduce the scalar no-context path bit-for-bit: same served count,
    same placements, for both gain modes."""

    @pytest.mark.parametrize("gain_mode", ["exact", "fast"])
    @given(st.integers(0, 10_000))
    @settings(max_examples=8, deadline=None)
    def test_context_matches_scalar_path(self, gain_mode, seed):
        from repro.core.context import SolverContext

        problem = random_tiny_problem(seed)
        scalar = appro_alg(problem, s=2, gain_mode=gain_mode)
        ctx = SolverContext.from_problem(problem)
        vectorised = appro_alg(problem, s=2, gain_mode=gain_mode, context=ctx)
        assert vectorised.served == scalar.served
        assert vectorised.anchors == scalar.anchors
        assert (vectorised.deployment.placements
                == scalar.deployment.placements)


@pytest.mark.parametrize("preset", ["demo-small", "bench-default"])
def test_exact_mode_is_independent_of_the_engines_assignment(
    preset, monkeypatch
):
    """Exact gains are max-flow values, which do not depend on which
    equal-value assignment an engine holds: ``appro_alg`` in exact mode
    on the Kuhn reference engine picks the same placements and serves the
    same users as on the bitset engine."""
    import repro.core.approx as approx
    from repro.scenario import get_preset
    from tests.reference.kuhn import KuhnAssignment

    spec = get_preset(preset)
    problem = spec.build()
    params = {**spec.algorithm_params, "gain_mode": "exact"}
    bitset = appro_alg(problem, **params)
    monkeypatch.setattr(approx, "new_engine_for",
                        lambda graph: KuhnAssignment(graph.num_users))
    kuhn = appro_alg(problem, **params)
    assert kuhn.deployment.placements == bitset.deployment.placements
    assert kuhn.served == bitset.served
    assert kuhn.deployment.assignment == bitset.deployment.assignment
    assert kuhn.anchors == bitset.anchors
