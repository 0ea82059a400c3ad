"""Fig. 6 — tradeoff of approAlg's parameter s (n = 3000, K = 20).

(a) served users vs s: grows with s (paper: 7%-33% above the baselines);
(b) running time vs s: grows steeply with s — the complexity is
O(K^2 n^2 m^{s+1}); the paper measured 0.34 s / 3.1 s / 95 s / ~47 min for
s = 1..4 on the authors' machine.  Absolute values differ here (pure
Python, restricted anchor pool, coarse grid) but the growth shape holds.

Baseline rows are re-measured once and shown flat across s, exactly as the
paper plots them.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import ANCHOR_POOL
from repro.scenario.pipeline import SolvePipeline

# prebuild_context=False keeps the context build inside the timed solve,
# as in the figure sweeps (repro.sim.experiments).
PIPELINE = SolvePipeline(prebuild_context=False)

SS = (1, 2, 3, 4)
BASELINES = ("maxThroughput", "MotionCtrl", "MCS", "GreedyAssign")
N_USERS = 3000
K = 20
TITLE = "Fig. 6 - served users (a) and runtime (b) vs s (n=3000, K=20)"


@pytest.mark.parametrize("s", SS)
def test_fig6_appro_point(benchmark, scenario_cache, figure_report, s):
    problem = scenario_cache(N_USERS, K)
    record = benchmark.pedantic(
        lambda: PIPELINE.solve(problem, "approAlg", {
            "s": s,
            "max_anchor_candidates": ANCHOR_POOL,
            "gain_mode": "fast",
        }).record,
        rounds=1,
        iterations=1,
    )
    figure_report.record(
        "fig6", TITLE, s, "approAlg", record.served, round(record.runtime_s, 3)
    )
    assert record.served > 0


@pytest.mark.parametrize("algorithm", BASELINES)
def test_fig6_baseline_rows(benchmark, scenario_cache, figure_report,
                            algorithm):
    problem = scenario_cache(N_USERS, K)
    record = benchmark.pedantic(
        lambda: PIPELINE.solve(problem, algorithm).record,
        rounds=1,
        iterations=1,
    )
    for s in SS:  # baselines do not depend on s; plot them flat
        figure_report.record(
            "fig6", TITLE, s, algorithm, record.served,
            round(record.runtime_s, 3),
        )
    assert record.served > 0
