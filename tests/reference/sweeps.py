"""The figure sweeps and the paired comparison as hand-rolled loops, kept
as test references.

These are the loops ``repro.sim.experiments`` and ``repro.sim.compare``
ran before every sweep became a list of ``ScenarioSpec`` rows run through
``BatchRunner``: each repetition (in Fig. 5, each point) draws its
problem from a spawned child generator, and every algorithm at every
point solves it through ``SolvePipeline.solve``.  The bodies are the old ones verbatim, except
that the resume journal is gone (``checkpoint_dir`` / ``resume`` are not
taken) and the comparison returns only the paired served lists.
``tests/test_sweep_reference.py`` pins the grid drivers to them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.scenario.pipeline import SolvePipeline
from repro.sim.results import SweepResult
from repro.util.rng import ensure_rng, spawn_seeds
from repro.workload.scenarios import SCALES, paper_scenario

_PIPELINE = SolvePipeline(prebuild_context=False)


def spawn_rngs(seed, count: int) -> list:
    """The child generators the loops drew from."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


PAPER_ALGORITHMS = (
    "approAlg",
    "maxThroughput",
    "MotionCtrl",
    "MCS",
    "GreedyAssign",
)

DEFAULT_ANCHOR_POOL = 10


def _appro_params(
    s: int,
    max_anchor_candidates: "int | None",
    gain_mode: str = "fast",
    workers: int = 1,
) -> dict:
    params: dict = {"s": s, "gain_mode": gain_mode}
    if max_anchor_candidates is not None:
        params["max_anchor_candidates"] = max_anchor_candidates
    if workers != 1:
        params["workers"] = workers
    return params


def _run_point(
    result: SweepResult,
    sweep_value: object,
    problem,
    algorithms: Sequence,
    appro_params: dict,
) -> None:
    with obs.span("sweep.point", sweep=result.name, value=str(sweep_value)):
        obs.counter_inc("sweep.points")
        for name in algorithms:
            params = appro_params if name == "approAlg" else {}
            state = _PIPELINE.solve(problem, name, params)
            result.add(sweep_value, state.record)


def _announce_points(count: int) -> None:
    """Declare the sweep's total point count up front so live telemetry
    can pair it with the ``sweep.points`` completions."""
    obs.counter_inc("sweep.points_planned", count)


def _num_locations(scale: str) -> int:
    """Candidate hovering locations of a scale preset (no users built)."""
    from repro.geometry.area import DisasterArea

    config = SCALES[scale]
    area = DisasterArea(config.area_length_m, config.area_width_m)
    altitudes = config.altitude_layers_m or (config.altitude_m,)
    return sum(
        len(area.hovering_grid(config.grid_side_m, alt).centers)
        for alt in altitudes
    )


def _feasible_ks(ks: Sequence, scale: str) -> list:
    """The K values deployable at this scale.

    Constraint (ii) allows at most one UAV per candidate location, so on
    coarse scales (``small`` has m = 9) the default fig4 range reaches
    into infeasible territory; those points are skipped (counted in
    ``sweep.points_skipped``) instead of aborting the whole sweep.
    """
    limit = _num_locations(scale)
    feasible = [k for k in ks if k <= limit]
    if not feasible:
        raise ValueError(
            f"no feasible sweep point: every K in {list(ks)} exceeds the "
            f"{limit} candidate locations of scale {scale!r}"
        )
    if len(feasible) < len(ks):
        obs.counter_inc("sweep.points_skipped", len(ks) - len(feasible))
    return feasible


def fig4_sweep(
    ks: Sequence = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20),
    num_users: int = 3000,
    s: int = 3,
    scale: str = "bench",
    seed: int = 7,
    repetitions: int = 1,
    algorithms: Sequence = PAPER_ALGORITHMS,
    max_anchor_candidates: "int | None" = DEFAULT_ANCHOR_POOL,
    gain_mode: str = "fast",
    workers: int = 1,
) -> SweepResult:
    """Fig. 4: served users vs K.

    Within one repetition the users and the fleet are held fixed: the
    scenario is drawn once with ``max(ks)`` UAVs and each sweep point uses
    the first ``K`` of them, so the series isolates the effect of adding
    UAVs (as the paper's "increasing the number K of UAVs" does).
    """
    from repro.core.problem import ProblemInstance

    ks = _feasible_ks(list(ks), scale)
    result = SweepResult(name="fig4", sweep_param="K")
    _announce_points(len(ks) * repetitions)
    for rep_rng in spawn_rngs(seed, repetitions):
        base = paper_scenario(
            num_users=num_users, num_uavs=max(ks), scale=scale, seed=rep_rng
        )
        for k in ks:
            problem = ProblemInstance(graph=base.graph, fleet=base.fleet[:k])
            appro = _appro_params(
                min(s, k), max_anchor_candidates, gain_mode, workers
            )
            _run_point(result, k, problem, algorithms, appro)
    return result


def fig5_sweep(
    ns: Sequence = (1000, 1500, 2000, 2500, 3000),
    num_uavs: int = 20,
    s: int = 3,
    scale: str = "bench",
    seed: int = 11,
    repetitions: int = 1,
    algorithms: Sequence = PAPER_ALGORITHMS,
    max_anchor_candidates: "int | None" = DEFAULT_ANCHOR_POOL,
    gain_mode: str = "fast",
    workers: int = 1,
) -> SweepResult:
    """Fig. 5: served users vs n."""
    ns = list(ns)
    result = SweepResult(name="fig5", sweep_param="n")
    _announce_points(len(ns) * repetitions)
    appro = _appro_params(s, max_anchor_candidates, gain_mode, workers)
    for rep_rng in spawn_rngs(seed, repetitions):
        point_rngs = spawn_rngs(rep_rng, len(ns))
        for n, rng in zip(ns, point_rngs):
            problem = paper_scenario(
                num_users=n, num_uavs=num_uavs, scale=scale, seed=rng
            )
            _run_point(result, n, problem, algorithms, appro)
    return result


def capacity_spread_sweep(
    spreads: Sequence = ((175, 175), (125, 225), (50, 300)),
    num_users: int = 2000,
    num_uavs: int = 12,
    s: int = 2,
    scale: str = "bench",
    seed: int = 29,
    max_anchor_candidates: "int | None" = 8,
    gain_mode: str = "fast",
) -> SweepResult:
    """Extended evaluation (ours): served users vs the heterogeneity
    spread ``[C_min, C_max]`` at (roughly) fixed mean capacity.  Isolates
    the paper's thesis that a capacity-aware algorithm benefits from
    spread."""
    from repro.core.problem import ProblemInstance
    from repro.network.fleet import heterogeneous_fleet

    spreads = list(spreads)
    result = SweepResult(name="capacity-spread", sweep_param="C range")
    _announce_points(len(spreads))
    base = paper_scenario(num_users=num_users, num_uavs=num_uavs,
                          scale=scale, seed=seed)
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    for lo, hi in spreads:
        fleet = heterogeneous_fleet(
            num_uavs, capacity_min=lo, capacity_max=hi, seed=seed
        )
        problem = ProblemInstance(graph=base.graph, fleet=fleet)
        _run_point(result, f"[{lo},{hi}]", problem, ("approAlg",), appro)
    return result


def environment_sweep(
    environments: Sequence = ("suburban", "urban", "dense-urban",
                              "highrise-urban"),
    num_users: int = 1500,
    num_uavs: int = 10,
    min_rate_bps: float = 2.5e6,
    s: int = 2,
    scale: str = "bench",
    seed: int = 23,
    max_anchor_candidates: "int | None" = 8,
    gain_mode: str = "fast",
) -> SweepResult:
    """Extended evaluation (ours): served users vs propagation
    environment.  A demanding ``min_rate_bps`` (default video-grade) makes
    the environment matter; the paper's 2 kbps floor never binds."""
    from repro.workload.fat_tailed import FatTailedWorkload
    from repro.workload.scenarios import SCALES, build_scenario

    environments = list(environments)
    result = SweepResult(name="environment", sweep_param="environment")
    _announce_points(len(environments))
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    for env in environments:
        config = SCALES[scale].with_overrides(
            num_users=num_users,
            num_uavs=num_uavs,
            environment=env,
            workload=FatTailedWorkload(min_rate_bps=min_rate_bps),
        )
        problem = build_scenario(config, seed=seed)
        _run_point(result, env, problem, ("approAlg",), appro)
    return result


def fig6_sweep(
    ss: Sequence = (1, 2, 3, 4),
    num_users: int = 3000,
    num_uavs: int = 20,
    scale: str = "bench",
    seed: int = 13,
    repetitions: int = 1,
    algorithms: Sequence = PAPER_ALGORITHMS,
    max_anchor_candidates: "int | None" = DEFAULT_ANCHOR_POOL,
    gain_mode: str = "fast",
    workers: int = 1,
) -> SweepResult:
    """Fig. 6: served users (a) and running time (b) vs s.

    Baselines do not depend on ``s``; the paper still plots them as flat
    series, so they are re-run at every sweep point (their runtimes feed
    Fig. 6(b)).
    """
    ss = list(ss)
    result = SweepResult(name="fig6", sweep_param="s")
    _announce_points(len(ss) * repetitions)
    rng = ensure_rng(seed)
    for rep_rng in spawn_rngs(rng, repetitions):
        problem = paper_scenario(
            num_users=num_users, num_uavs=num_uavs, scale=scale, seed=rep_rng
        )
        for s in ss:
            appro = _appro_params(
                s, max_anchor_candidates, gain_mode, workers
            )
            _run_point(result, s, problem, algorithms, appro)
    return result


def compare_served(
    algorithm_a: str,
    algorithm_b: str,
    repetitions: int = 10,
    num_users: int = 800,
    num_uavs: int = 10,
    scale: str = "bench",
    seed: int = 101,
    params_a: "dict | None" = None,
    params_b: "dict | None" = None,
) -> "tuple[list, list]":
    """The paired comparison's loop: ``(served_a, served_b)``."""
    served_as, served_bs = [], []
    rng = ensure_rng(seed)
    for child in spawn_rngs(rng, repetitions):
        problem = paper_scenario(
            num_users=num_users, num_uavs=num_uavs, scale=scale, seed=child
        )
        served_a = _PIPELINE.solve(problem, algorithm_a, params_a).served
        served_b = _PIPELINE.solve(problem, algorithm_b, params_b).served
        served_as.append(served_a)
        served_bs.append(served_b)
    return served_as, served_bs
