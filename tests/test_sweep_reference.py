"""The spec-row experiment grid reproduces the hand-rolled sweep loops
(``tests/reference/sweeps.py``) row for row: same sweep values in the same
order, and equal algorithm, served count, problem size and parameters.
Only the wall-clock ``runtime_s`` may differ."""

from __future__ import annotations

import pytest

from repro import obs
from repro.scenario import ScenarioSpec, SolvePipeline
from repro.sim import experiments
from repro.sim.compare import compare_algorithms
from tests.reference import sweeps as reference

SMALL = dict(scale="small", repetitions=2, max_anchor_candidates=6)


def _rows(result) -> list:
    return [
        (value, rec.algorithm, rec.served, rec.num_users, rec.num_uavs,
         rec.params, rec.status)
        for value, rec in result.records
    ]


@pytest.fixture
def counters():
    obs.reset()
    obs.enable()
    yield lambda: obs.metrics_snapshot().get("counters", {})
    obs.disable()
    obs.reset()


def test_fig4_matches_reference_and_skips_k_above_locations(counters):
    # K = 12 exceeds the 9 candidate locations of the small scale.
    kwargs = dict(SMALL, ks=(2, 4, 9, 12), num_users=300, s=2)
    grid = experiments.fig4_sweep(**kwargs)
    assert counters().get("sweep.points_skipped") == 1
    loop = reference.fig4_sweep(**kwargs)
    assert counters().get("sweep.points_skipped") == 2
    assert _rows(grid) == _rows(loop)
    assert {value for value, _ in grid.records} == {2, 4, 9}
    assert len(grid.specs) == len(grid.records) == 2 * 3 * 5


def test_fig5_matches_reference():
    kwargs = dict(SMALL, ns=(150, 250), num_uavs=5, s=2)
    assert _rows(experiments.fig5_sweep(**kwargs)) == _rows(
        reference.fig5_sweep(**kwargs)
    )


def test_fig6_matches_reference():
    kwargs = dict(SMALL, ss=(1, 2, 3), num_users=300, num_uavs=5)
    assert _rows(experiments.fig6_sweep(**kwargs)) == _rows(
        reference.fig6_sweep(**kwargs)
    )


def test_environment_sweep_matches_reference():
    kwargs = dict(environments=("suburban", "highrise-urban"),
                  num_users=300, num_uavs=4, scale="small",
                  max_anchor_candidates=6)
    assert _rows(experiments.environment_sweep(**kwargs)) == _rows(
        reference.environment_sweep(**kwargs)
    )


@pytest.mark.parametrize("algorithm_a, params_a, algorithm_b", [
    ("approAlg", {"s": 2, "gain_mode": "fast"}, "MCS"),
    ("MCS", None, "MCS"),
])
def test_compare_matches_reference(algorithm_a, params_a, algorithm_b):
    kwargs = dict(repetitions=2, num_users=200, num_uavs=5, scale="small",
                  seed=3, params_a=params_a)
    result = compare_algorithms(algorithm_a, algorithm_b, **kwargs)
    assert (result.served_a, result.served_b) == reference.compare_served(
        algorithm_a, algorithm_b, **kwargs
    )


def test_capacity_spread_rows_are_spec_solves():
    """The spread sweep draws its fleet from the scenario stream (after
    the users), so it is pinned to solving its own spec rows."""
    spreads = ((5, 5), (2, 8))
    result = experiments.capacity_spread_sweep(
        spreads=spreads, num_users=300, num_uavs=4, s=2, scale="small",
        max_anchor_candidates=6,
    )
    pipeline = SolvePipeline(prebuild_context=False)
    expected = []
    for lo, hi in spreads:
        spec = ScenarioSpec(
            scale="small", num_users=300, num_uavs=4, capacity_min=lo,
            capacity_max=hi, seed=29, algorithm="approAlg",
            algorithm_params={"s": 2, "gain_mode": "fast",
                              "max_anchor_candidates": 6},
        )
        record = pipeline.run(spec).record
        expected.append((f"[{lo},{hi}]", record.algorithm, record.served,
                         record.num_users, record.num_uavs, record.params,
                         record.status))
    assert _rows(result) == expected
