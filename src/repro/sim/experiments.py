"""Sweep drivers regenerating each figure of Section IV.

* Fig. 4 — served users vs number of UAVs ``K`` (n = 3000, s = 3);
* Fig. 5 — served users vs number of users ``n`` (K = 20, s = 3);
* Fig. 6(a) — served users vs parameter ``s`` (n = 3000, K = 20);
* Fig. 6(b) — running time vs parameter ``s`` (same runs as 6(a)).

Every sweep is a list of ``(sweep value, ScenarioSpec)`` rows, one row
per (point, algorithm, repetition), run by :func:`run_grid` through one
:class:`~repro.scenario.batch.BatchRunner`: one build per scenario, the
batch ledger for resume, per-solve chunk checkpoints and interrupt drain.

Scaling: the authors' machine ran a compiled implementation on a fine
grid; this pure-Python reproduction defaults to the "bench" scale (coarse
36-location grid) and restricts approAlg's anchor pool to the
``max_anchor_candidates`` best-covering locations (see DESIGN.md §3).  The
sweeps accept overrides to run closer to paper scale when time permits.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from repro import obs
from repro.scenario.batch import BatchRunner
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.sim.results import SweepResult
from repro.util.rng import spawn_seeds
from repro.workload.scenarios import SCALES

# One shared pipeline for every sweep.  ``prebuild_context=False`` keeps
# each solver building its own context inside its timed solve stage, so
# the runtimes feeding Fig. 6(b) cover the same region as a direct call.
_PIPELINE = SolvePipeline(prebuild_context=False)

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
) -> dict:
    params: dict = {"s": s, "gain_mode": gain_mode}
    if max_anchor_candidates is not None:
        params["max_anchor_candidates"] = max_anchor_candidates
    return params


def _point_rows(value: object, algorithms: Sequence, appro_params: dict,
                **scenario: object) -> list:
    """One ``(value, spec)`` row per algorithm at one sweep point;
    ``appro_params`` go to approAlg only."""
    return [
        (value, ScenarioSpec(
            algorithm=name,
            algorithm_params=appro_params if name == "approAlg" else {},
            **scenario,
        ))
        for name in algorithms
    ]


def run_grid(
    name: str,
    sweep_param: str,
    rows: "list",
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Run ``(sweep value, spec)`` rows through one :class:`BatchRunner`.

    Spec ``i`` is renamed ``<name>-<i>``.  With ``checkpoint_dir`` the
    batch ledger and solve checkpoints live under ``checkpoint_dir/<name>``,
    so several sweeps can share one directory.
    """
    specs = [spec.with_overrides(name=f"{name}-{i}")
             for i, (_, spec) in enumerate(rows)]
    runner = BatchRunner(
        _PIPELINE,
        checkpoint_dir=(
            None if checkpoint_dir is None else Path(checkpoint_dir) / name
        ),
        resume=resume,
    )
    batch = runner.run(specs)
    result = SweepResult(name=name, sweep_param=sweep_param, specs=specs)
    for (value, _), item in zip(rows, batch.items):
        result.add(value, item.record)
    return result


def _repetition_seeds(seed, repetitions: int) -> list:
    """One child seed per repetition; fewer than one repetition is a
    :class:`SpecError`, not an empty sweep."""
    if repetitions < 1:
        raise SpecError(f"repetitions must be >= 1, got {repetitions}")
    return spawn_seeds(seed, repetitions)


def _feasible_ks(ks: Sequence, scale: str) -> list:
    """The K values deployable at this scale.

    Constraint (ii) allows at most one UAV per candidate location, so on
    coarse scales (``small`` has m = 9) the default fig4 range reaches
    into infeasible territory; those points are skipped (counted in
    ``sweep.points_skipped``) instead of aborting the whole sweep.
    """
    limit = SCALES[scale].num_locations
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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Fig. 4: served users vs K.

    Within one repetition the users and the fleet are held fixed: every K
    shares the repetition's seed, and the scenario stream draws the users
    first and then the fleet one UAV at a time, so the K-UAV fleet is the
    first ``K`` UAVs of any larger one.  The series isolates the effect of
    adding UAVs (as the paper's "increasing the number K of UAVs" does).
    """
    ks = _feasible_ks(list(ks), scale)
    rows: list = []
    for rep_seed in _repetition_seeds(seed, repetitions):
        for k in ks:
            rows += _point_rows(
                k, algorithms,
                _appro_params(min(s, k), max_anchor_candidates, gain_mode),
                scale=scale, num_users=num_users, num_uavs=k,
                seed=rep_seed, workers=workers,
            )
    return run_grid("fig4", "K", rows, checkpoint_dir, resume)


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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Fig. 5: served users vs n (each point draws its own scenario)."""
    ns = list(ns)
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    rows: list = []
    for rep_seed in _repetition_seeds(seed, repetitions):
        for n, point_seed in zip(ns, spawn_seeds(rep_seed, len(ns))):
            rows += _point_rows(
                n, algorithms, appro, scale=scale, num_users=n,
                num_uavs=num_uavs, seed=point_seed, workers=workers,
            )
    return run_grid("fig5", "n", rows, checkpoint_dir, resume)


def capacity_spread_sweep(
    spreads: Sequence = ((175, 175), (125, 225), (50, 300)),
    num_users: int = 2000,
    num_uavs: int = 12,
    s: int = 2,
    scale: str = "bench",
    seed: int = 29,
    max_anchor_candidates: "int | None" = 8,
    gain_mode: str = "fast",
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Extended evaluation (ours): served users vs the heterogeneity
    spread ``[C_min, C_max]`` at (roughly) fixed mean capacity.  Isolates
    the paper's thesis that a capacity-aware algorithm benefits from
    spread.  Paired: every spread draws the same users, and its fleet from
    the same point of the scenario stream."""
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    rows: list = []
    for lo, hi in spreads:
        rows += _point_rows(
            f"[{lo},{hi}]", ("approAlg",), appro, scale=scale,
            num_users=num_users, num_uavs=num_uavs, capacity_min=lo,
            capacity_max=hi, seed=seed,
        )
    return run_grid("capacity-spread", "C range", rows, checkpoint_dir,
                    resume)


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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Extended evaluation (ours): served users vs propagation
    environment.  A demanding ``min_rate_bps`` (default video-grade) makes
    the environment matter; the paper's 2 kbps floor never binds."""
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    rows: list = []
    for env in environments:
        rows += _point_rows(
            env, ("approAlg",), appro, scale=scale, num_users=num_users,
            num_uavs=num_uavs, environment=env, workload="fat-tailed",
            workload_params={"min_rate_bps": min_rate_bps}, seed=seed,
        )
    return run_grid("environment", "environment", rows, checkpoint_dir,
                    resume)


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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Fig. 6: served users (a) and running time (b) vs s.

    Baselines do not depend on ``s``; the paper still plots them as flat
    series, so they are re-run at every sweep point (their runtimes feed
    Fig. 6(b)).
    """
    rows: list = []
    for rep_seed in _repetition_seeds(seed, repetitions):
        for s in ss:
            rows += _point_rows(
                s, algorithms,
                _appro_params(s, max_anchor_candidates, gain_mode),
                scale=scale, num_users=num_users, num_uavs=num_uavs,
                seed=rep_seed, workers=workers,
            )
    return run_grid("fig6", "s", rows, checkpoint_dir, resume)
