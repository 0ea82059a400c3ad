"""Fig. 5 — served users vs number of users n (K = 20, s = 3).

Paper shape: every algorithm serves more users as n grows; approAlg leads
by ~7% (n = 1000) to ~22% (n = 3000).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import ANCHOR_POOL
from repro.scenario.pipeline import SolvePipeline

# prebuild_context=False keeps the context build inside the timed solve,
# as in the figure sweeps (repro.sim.experiments).
PIPELINE = SolvePipeline(prebuild_context=False)

NS = (1000, 1500, 2000, 2500, 3000)
ALGORITHMS = ("approAlg", "maxThroughput", "MotionCtrl", "MCS", "GreedyAssign")
K = 20
S = 3
TITLE = "Fig. 5 - served users vs n (K=20, s=3)"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", NS)
def test_fig5_point(benchmark, scenario_cache, figure_report, n, algorithm):
    problem = scenario_cache(n, K)
    params = (
        {"s": S, "max_anchor_candidates": ANCHOR_POOL, "gain_mode": "fast"}
        if algorithm == "approAlg"
        else {}
    )
    record = benchmark.pedantic(
        lambda: PIPELINE.solve(problem, algorithm, params).record,
        rounds=1,
        iterations=1,
    )
    figure_report.record(
        "fig5", TITLE, n, algorithm, record.served, round(record.runtime_s, 3)
    )
    assert 0 <= record.served <= n
