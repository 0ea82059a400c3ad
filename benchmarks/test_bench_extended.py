"""Extended evaluation benches (ours, beyond the paper's figures).

* capacity-range sweep — how the heterogeneity *spread* [C_min, C_max]
  affects served users at fixed mean capacity: the wider the spread, the
  more capacity-aware placement matters.  Each point runs
  :func:`repro.sim.experiments.capacity_spread_sweep`'s spec row, so the
  bench, the sweep and ``examples/out/capacity_spread.csv`` share one
  definition;
* interference audit — fraction of the SNR-planned service that survives
  a reuse-1 SINR recheck.
"""

from __future__ import annotations

import pytest

from repro.channel.interference import audit_interference
from repro.core.approx import appro_alg
from repro.sim.experiments import capacity_spread_sweep

TITLE_CAP = "Capacity-spread sweep - served users (n=2000, K=12, mean C=175)"
TITLE_SINR = "Interference audit - reuse-1 SINR survival (n=1500, K=10)"

CAPACITY_RANGES = ((175, 175), (125, 225), (50, 300))


@pytest.mark.parametrize("cap_range", CAPACITY_RANGES,
                         ids=lambda r: f"{r[0]}-{r[1]}")
def test_capacity_spread(benchmark, figure_report, cap_range):
    lo, hi = cap_range
    sweep = benchmark.pedantic(
        lambda: capacity_spread_sweep(spreads=(cap_range,)),
        rounds=1,
        iterations=1,
    )
    ((_, record),) = sweep.records
    figure_report.record(
        "extended-capacity", TITLE_CAP, f"C in [{lo},{hi}]", "approAlg",
        record.served, round(record.runtime_s, 3),
    )
    assert record.ok and record.served > 0


def test_interference_audit(benchmark, figure_report, scenario_cache):
    problem = scenario_cache(1500, 10, seed=31)
    deployment = appro_alg(problem, s=2, gain_mode="fast",
                           max_anchor_candidates=8).deployment

    audit = benchmark.pedantic(
        lambda: audit_interference(problem, deployment, activity_factor=1.0),
        rounds=1,
        iterations=1,
    )
    figure_report.record(
        "extended-sinr", TITLE_SINR, "reuse-1 SINR survival %", "served",
        round(100 * audit.survival_fraction, 1),
        round(audit.mean_sinr_loss_db, 1),
    )
    assert 0.0 <= audit.survival_fraction <= 1.0
