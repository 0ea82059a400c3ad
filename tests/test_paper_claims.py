"""Tests pinning the paper's headline experimental claims at reduced scale.

These are the assertions a reviewer would check first: the proposed
algorithm beats every baseline on the paper's own scenario family, the
figures' growth directions hold, and the s-tradeoff behaves as described.
Scales are trimmed so the whole module runs in seconds.
"""

import pytest

from repro.core.approx import appro_alg
from repro.scenario.pipeline import SolvePipeline
from repro.workload.scenarios import paper_scenario

BASELINES = ("maxThroughput", "MotionCtrl", "MCS", "GreedyAssign")


@pytest.fixture(scope="module")
def headline_problem():
    """A capacity-tight slice of the Section IV-A scenario."""
    return paper_scenario(num_users=1200, num_uavs=12, scale="bench", seed=7)


@pytest.fixture(scope="module")
def appro_served(headline_problem):
    return appro_alg(
        headline_problem, s=2, gain_mode="fast", max_anchor_candidates=8
    ).served


class TestHeadlineClaim:
    def test_beats_every_baseline(self, headline_problem, appro_served):
        """Fig. 4/5's core claim: approAlg serves the most users."""
        for name in BASELINES:
            baseline = SolvePipeline().solve(headline_problem, name).served
            assert appro_served >= baseline, (
                f"approAlg ({appro_served}) lost to {name} ({baseline})"
            )

    def test_margin_over_weakest_is_material(self, headline_problem,
                                             appro_served):
        """The paper reports up to 22% over the baselines; at our reduced
        scale the margin over the weakest baseline should still be >= 5%."""
        weakest = min(
            SolvePipeline().solve(headline_problem, name).served
            for name in BASELINES
        )
        assert appro_served >= 1.05 * weakest

    def test_s_tradeoff_directions(self, headline_problem):
        """Fig. 6: quality non-decreasing in s (within noise), runtime
        increasing in s."""
        import time

        served = {}
        runtime = {}
        for s in (1, 2, 3):
            t0 = time.perf_counter()
            served[s] = appro_alg(
                headline_problem, s=s, gain_mode="fast",
                max_anchor_candidates=8,
            ).served
            runtime[s] = time.perf_counter() - t0
        assert served[3] >= served[1] * 0.98
        assert runtime[3] > runtime[1]

    def test_capacity_awareness_matters(self, headline_problem):
        """The motivating scenario of Section I: a capacity-blind variant
        (UAVs deployed in index order rather than capacity order) must not
        beat the capacity-sorted Algorithm 2 on capacity-tight instances.

        (Both are run through the same pipeline; only the deployment order
        differs.)"""
        from repro.core.connect import connect_and_deploy
        from repro.core.greedy import anchored_greedy
        from repro.core.segments import optimal_segments

        problem = headline_problem
        plan = optimal_segments(problem.num_uavs, 2)
        strongest = problem.fleet[problem.capacity_order()[0]]
        anchors = sorted(
            range(problem.num_locations),
            key=lambda v: -problem.graph.coverage_count(v, strongest),
        )[:2]

        def run_order(order):
            greedy = anchored_greedy(problem, anchors, plan, order=order,
                                     gain_mode="fast")
            sol = connect_and_deploy(problem, greedy, order=order,
                                     gain_mode="fast")
            return 0 if sol is None else sol.served

        sorted_served = run_order(problem.capacity_order())
        index_served = run_order(list(range(problem.num_uavs)))
        assert sorted_served >= index_served * 0.97