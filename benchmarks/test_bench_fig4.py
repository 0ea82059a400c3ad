"""Fig. 4 — served users vs number of UAVs K (n = 3000, s = 3).

Paper shape to reproduce: served users grow with K for every algorithm;
approAlg leads, up to ~22% over the baselines at K = 20 (paper numbers:
approAlg 2356, maxThroughput 1920, MCS 1913, GreedyAssign 1855,
MotionCtrl 1269).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import ANCHOR_POOL
from repro.scenario.pipeline import SolvePipeline

# prebuild_context=False keeps the context build inside the timed solve,
# as in the figure sweeps (repro.sim.experiments).
PIPELINE = SolvePipeline(prebuild_context=False)

KS = (4, 8, 12, 16, 20)
ALGORITHMS = ("approAlg", "maxThroughput", "MotionCtrl", "MCS", "GreedyAssign")
N_USERS = 3000
S = 3
TITLE = "Fig. 4 - served users vs K (n=3000, s=3)"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("k", KS)
def test_fig4_point(benchmark, scenario_cache, figure_report, perf_trajectory,
                    k, algorithm):
    # Hold users and fleet fixed across the sweep: draw the scenario once
    # with max(KS) UAVs and deploy only the first k (see fig4_sweep).
    from repro.core.problem import ProblemInstance

    base = scenario_cache(N_USERS, max(KS))
    problem = ProblemInstance(graph=base.graph, fleet=base.fleet[:k])
    params = (
        {"s": min(S, k), "max_anchor_candidates": ANCHOR_POOL,
         "gain_mode": "fast"}
        if algorithm == "approAlg"
        else {}
    )

    record = benchmark.pedantic(
        lambda: PIPELINE.solve(problem, algorithm, params).record,
        rounds=1,
        iterations=1,
    )
    figure_report.record(
        "fig4", TITLE, k, algorithm, record.served, round(record.runtime_s, 3)
    )
    perf_trajectory.record(
        f"fig4:K={k}", algorithm, record.served, record.runtime_s, workers=1
    )
    assert 0 <= record.served <= N_USERS
