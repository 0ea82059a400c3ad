"""Golden equivalence: the declarative pipeline vs direct calls.

The pipeline's contract is *bit-identical behaviour*: for any seeded
spec, `SolvePipeline` must produce exactly the deployment (served users,
chosen nodes, user assignment) that the direct paths — ``paper_scenario``
plus a registry call ``DEFAULT_REGISTRY.get(name).solve(...)`` and
``validate_deployment``, a hand-rolled sweep loop, a mission's derived
fault seed — produce.  This suite pins that over
20+ specs spanning both scales, four algorithms, several seeds, serial
and ``workers=2``, plus the batch runner's reuse path (which must also
beat running the same specs sequentially).

CI runs this file in its own job (see .github/workflows/ci.yml).
"""

import time

import pytest

from repro.network.validate import validate_deployment
from repro.scenario.batch import BatchRunner
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.registry import DEFAULT_REGISTRY
from repro.scenario.spec import ScenarioSpec
from repro.workload.scenarios import paper_scenario

APPRO_PARAMS = {"s": 2, "gain_mode": "fast", "max_anchor_candidates": 10}

SCALE_GRID = (
    # (scale, num_users, num_uavs) — small and medium scales
    ("small", 300, 6),
    ("bench", 600, 8),
)
ALGORITHM_GRID = (
    ("approAlg", APPRO_PARAMS),
    ("MCS", {}),
    ("GreedyAssign", {}),
    ("maxThroughput", {}),
)
SEEDS = (0, 1, 2)


def _golden_specs() -> list:
    """24 serial specs (2 scales x 4 algorithms x 3 seeds) plus the
    engine-option variant workers=2 on both scales."""
    specs = [
        ScenarioSpec(
            name=f"golden-{scale}-{algorithm}-{seed}",
            scale=scale, num_users=users, num_uavs=uavs, seed=seed,
            algorithm=algorithm, algorithm_params=dict(params),
        )
        for scale, users, uavs in SCALE_GRID
        for algorithm, params in ALGORITHM_GRID
        for seed in SEEDS
    ]
    specs.append(ScenarioSpec(
        name="golden-small-workers2", scale="small", num_users=300,
        num_uavs=6, seed=0, algorithm="approAlg",
        algorithm_params=dict(APPRO_PARAMS), workers=2,
    ))
    specs.append(ScenarioSpec(
        name="golden-bench-workers2", scale="bench", num_users=600,
        num_uavs=8, seed=0, algorithm="approAlg",
        algorithm_params=dict(APPRO_PARAMS), workers=2,
    ))
    return specs


def _direct_run(problem, name: str, params: dict):
    """The direct path: one registry call, then the strict validator
    (raises on an infeasible deployment)."""
    entry = DEFAULT_REGISTRY.get(name)
    deployment = entry.solve(problem, **params)
    validate_deployment(
        problem.graph, problem.fleet, deployment,
        require_connected=entry.requires_connected,
    )
    return deployment


def _direct_spec_run(spec: ScenarioSpec):
    """Build via paper_scenario and solve via :func:`_direct_run`."""
    problem = paper_scenario(
        num_users=spec.num_users, num_uavs=spec.num_uavs,
        scale=spec.scale, seed=spec.seed,
    )
    params = dict(spec.algorithm_params)
    if spec.workers != 1:
        params["workers"] = spec.workers
    return problem, _direct_run(problem, spec.algorithm, params)


GOLDEN_SPECS = _golden_specs()


@pytest.mark.timeout_guard(600)
@pytest.mark.parametrize(
    "spec", GOLDEN_SPECS, ids=[spec.name for spec in GOLDEN_SPECS]
)
def test_pipeline_matches_legacy_path(spec):
    assert len(GOLDEN_SPECS) >= 20
    state = SolvePipeline().run(spec)
    problem, direct_deployment = _direct_spec_run(spec)
    assert state.status == state.record.status == "ok"
    assert state.record.served == direct_deployment.served_count
    assert state.deployment.placements == direct_deployment.placements
    assert state.deployment.assignment == direct_deployment.assignment
    assert state.record.num_users == problem.num_users
    assert state.record.num_uavs == problem.num_uavs


# Scale-layer variants: each must collapse onto the plain per-user run
# of its base spec bit for bit (singleton cells are the degenerate
# aggregation; a 1x1 grid is the identity carve; composed, both).
SCALE_VARIANTS = (
    ("singleton-cells", {"aggregation": "cells"}),
    ("tiles-1x1", {"tiles": "1x1"}),
    ("cells-tiles-1x1", {"aggregation": "cells", "tiles": "1x1"}),
)


@pytest.mark.timeout_guard(600)
@pytest.mark.parametrize(
    "label,overrides", SCALE_VARIANTS, ids=[v[0] for v in SCALE_VARIANTS]
)
@pytest.mark.parametrize("scale,users,uavs", SCALE_GRID)
def test_scale_variants_match_plain_pipeline(label, overrides, scale,
                                             users, uavs):
    base = ScenarioSpec(
        name=f"golden-scale-{scale}", scale=scale, num_users=users,
        num_uavs=uavs, seed=2, algorithm="approAlg",
        algorithm_params=dict(APPRO_PARAMS),
    )
    plain = SolvePipeline().run(base)
    variant = SolvePipeline().run(base.with_overrides(
        name=f"{base.name}-{label}", **overrides
    ))
    assert variant.status == "ok"
    assert variant.record.served == plain.record.served
    assert variant.deployment.placements == plain.deployment.placements
    assert variant.deployment.assignment == plain.deployment.assignment
    assert variant.record.num_users == plain.record.num_users


def test_sweep_points_match_legacy_loop():
    """The pipeline-backed fig5 sweep reproduces a hand-rolled loop
    (same RNG spawning, direct registry calls) point for point."""
    from repro.sim.experiments import fig5_sweep
    from repro.util.rng import spawn_seeds

    ns = (150, 250)
    swept = fig5_sweep(
        ns=ns, num_uavs=5, s=2, scale="small", seed=11,
        algorithms=("approAlg", "MCS"), max_anchor_candidates=8,
    )
    # Hand-rolled loop: the same RNG spawning, direct registry calls.
    loop_served = []
    (rep_seed,) = spawn_seeds(11, 1)
    point_seeds = spawn_seeds(rep_seed, len(ns))
    for n, point_seed in zip(ns, point_seeds):
        problem = paper_scenario(
            num_users=n, num_uavs=5, scale="small", seed=point_seed
        )
        for name in ("approAlg", "MCS"):
            params = (
                {"s": 2, "gain_mode": "fast", "max_anchor_candidates": 8}
                if name == "approAlg" else {}
            )
            loop_served.append(
                _direct_run(problem, name, params).served_count
            )
    assert [record.served for _, record in swept.records] == loop_served


def test_mission_spec_matches_manual_seed_plumbing():
    """A mission spec draws its faults from its own derived seed: the
    fault re-solves happen exactly at the crash times of the manual
    ``FaultSchedule.random`` draw, and the scenario is the static one."""
    from repro.dynamics import get_dynamic_preset, run_dynamic
    from repro.ops import FaultSchedule
    from repro.util.rng import derive_seed

    spec = get_dynamic_preset("mission-small").with_overrides(
        num_users=250, seed=5, duration_s=60.0,
    )
    result = run_dynamic(spec)
    schedule = FaultSchedule.random(
        num_uavs=6, num_crashes=2, window_s=(6.0, 42.0),
        seed=derive_seed(5, "faults"),
    )
    assert result.faults == len(schedule) == 2
    assert [e.t_s for e in result.epochs if e.trigger == "fault"] == [
        f.time_s for f in schedule
    ]
    problem = paper_scenario(
        num_users=250, num_uavs=6, scale="small", seed=5
    )
    assert result.timeline[0][2] == problem.num_users


@pytest.mark.timeout_guard(600)
def test_batch_of_8_beats_sequential_with_identical_results():
    """The acceptance benchmark: 8 specs over 2 scenarios through the
    batch runner must beat one-at-a-time pipeline runs on wall time while
    producing identical deployments.  The margin comes from structure,
    not parallelism: the batch builds each scenario and its solver
    context once instead of four times."""
    variants = (
        ("approAlg", {"s": 1, "gain_mode": "fast",
                      "max_anchor_candidates": 2}),
        ("approAlg", {"s": 1, "gain_mode": "fast",
                      "max_anchor_candidates": 3}),
        ("approAlg", {"s": 2, "gain_mode": "fast",
                      "max_anchor_candidates": 3}),
        ("MCS", {}),
    )
    specs = [
        ScenarioSpec(
            name=f"bench8-{seed}-{i}", scale="bench", num_users=2500,
            num_uavs=8, seed=seed, algorithm=algorithm,
            algorithm_params=dict(params),
        )
        for seed in (0, 1)
        for i, (algorithm, params) in enumerate(variants)
    ]
    assert len(specs) == 8

    pipeline = SolvePipeline()
    start = time.perf_counter()
    sequential = [pipeline.run(spec) for spec in specs]
    sequential_wall = time.perf_counter() - start

    batch = BatchRunner().run(specs)

    assert batch.groups == 2
    assert batch.context_builds == 2
    for state, item in zip(sequential, batch.items):
        assert state.record.served == item.record.served
        assert state.deployment.placements == item.deployment.placements
        assert state.deployment.assignment == item.deployment.assignment
    assert batch.wall_s < sequential_wall, (
        f"batch {batch.wall_s:.2f}s did not beat "
        f"sequential {sequential_wall:.2f}s"
    )
