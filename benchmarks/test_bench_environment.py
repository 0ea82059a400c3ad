"""Environment sweep (ours): propagation density vs coverage.

The paper evaluates one (urban-like) environment; this bench sweeps the
Al-Hourani presets.  Denser environments shrink effective coverage (the
2 kbps rate floor is generous, but the fixed R_user radius interacts with
pathloss through the rate check) and concentrate service — a robustness
check that the pipeline behaves physically, not an original paper figure.

Each environment point runs
:func:`repro.sim.experiments.environment_sweep`'s spec row, so the bench,
the sweep and ``examples/out/environment.csv`` share one definition.

Also ablates heterogeneous coverage radii (Section II-B allows per-UAV
R_user; the evaluation fixes one value).
"""

from __future__ import annotations

import pytest

from repro.core.approx import appro_alg
from repro.core.problem import ProblemInstance
from repro.network.fleet import heterogeneous_fleet
from repro.sim.experiments import environment_sweep

ENVIRONMENTS = ("suburban", "urban", "dense-urban", "highrise-urban")
TITLE = "Environment sweep - approAlg served users (n=1500, K=10, s=2)"

@pytest.mark.parametrize("environment", ENVIRONMENTS)
def test_environment_sweep(benchmark, figure_report, environment):
    # The sweep's users demand video-grade rates: the paper's 2 kbps floor
    # never binds (SNR at 500 m is enormous), so the environment would
    # not matter.
    sweep = benchmark.pedantic(
        lambda: environment_sweep(environments=(environment,)),
        rounds=1,
        iterations=1,
    )
    ((_, record),) = sweep.records
    figure_report.record(
        "environment", TITLE, environment, "approAlg", record.served,
        round(record.runtime_s, 3),
    )
    assert record.ok and record.served > 0


def test_highrise_serves_no_more_than_suburban(figure_report):
    data = figure_report.served.get("environment", {})
    if len(data) < len(ENVIRONMENTS):
        pytest.skip("run after the parametrized points")
    served = {env: v for (env, _alg), v in data.items()}
    assert served["highrise-urban"] <= served["suburban"]


@pytest.mark.parametrize("hetero_ranges", (False, True),
                         ids=("uniform-radii", "hetero-radii"))
def test_heterogeneous_radii_ablation(benchmark, figure_report,
                                      scenario_cache, hetero_ranges):
    base = scenario_cache(1500, 10, seed=23)
    fleet = heterogeneous_fleet(
        10, heterogeneous_ranges=hetero_ranges, seed=23
    )
    problem = ProblemInstance(graph=base.graph, fleet=fleet)
    result = benchmark.pedantic(
        lambda: appro_alg(problem, s=2, gain_mode="fast",
                          max_anchor_candidates=8),
        rounds=1,
        iterations=1,
    )
    label = "radii=hetero(0.8-1.0x)" if hetero_ranges else "radii=uniform"
    figure_report.record("environment", TITLE, label, "approAlg",
                         result.served, round(benchmark.stats.stats.mean, 3))
    assert result.served > 0
