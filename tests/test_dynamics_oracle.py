"""Warm-vs-cold equivalence oracle for the dynamic mission engine.

ISSUE acceptance: warm-started epoch re-solves must be result-identical
to cold re-solves — same timelines, same deployments — across a wide
seed grid.  Event times all come from seeded RNG streams (never from
measured latencies), so the two modes see identical event sequences and
any divergence is a real warm-start bug.
"""

import pytest

from repro.dynamics import DynamicSpec, run_dynamic

ORACLE_SEEDS = list(range(1, 21))


def oracle_spec(seed: int, **overrides) -> DynamicSpec:
    base = dict(
        name="oracle", scale="small", num_users=30, num_uavs=3, seed=seed,
        algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
        duration_s=150.0, epoch_s=45.0, arrival_rate_per_s=0.06,
        mean_dwell_s=120.0, mobility_sigma_m=20.0,
    )
    base.update(overrides)
    return DynamicSpec(**base)


def signature(result):
    return (
        result.timeline,
        [(e.t_s, e.trigger, e.served, e.num_placed) for e in result.epochs],
        result.arrivals, result.departures, result.faults,
        result.final_placements,
        sorted(result.time_to_serve_s),
    )


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_warm_identical_to_cold(seed):
    spec = oracle_spec(seed)
    warm = run_dynamic(spec, warm=True)
    cold = run_dynamic(spec, warm=False)
    assert signature(warm) == signature(cold)


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_warm_identical_under_faults_and_drift(seed):
    spec = oracle_spec(
        seed, resolve_policy="drift", drift_threshold=0.05,
        num_crashes=1, num_links=1, relocation_speed_mps=15.0,
    )
    warm = run_dynamic(spec, warm=True)
    cold = run_dynamic(spec, warm=False)
    assert signature(warm) == signature(cold)
