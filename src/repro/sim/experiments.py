"""Sweep drivers regenerating each figure of Section IV.

* Fig. 4 — served users vs number of UAVs ``K`` (n = 3000, s = 3);
* Fig. 5 — served users vs number of users ``n`` (K = 20, s = 3);
* Fig. 6(a) — served users vs parameter ``s`` (n = 3000, K = 20);
* Fig. 6(b) — running time vs parameter ``s`` (same runs as 6(a)).

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
from repro.core.checkpoint import CheckpointConfig
from repro.scenario.pipeline import SolvePipeline
from repro.sim.results import RunRecord, SweepResult
from repro.util.interrupt import SolveInterrupted, interrupt_requested
from repro.util.ledger import ProgressLedger
from repro.util.rng import ensure_rng, spawn_rngs
from repro.workload.scenarios import SCALES, paper_scenario

# One shared pipeline for every sweep point.  ``prebuild_context=False``
# keeps the per-point cost (and the solve timings feeding Fig. 6(b))
# exactly as they were before the sweeps moved onto the pipeline: each
# solver builds its own context, inside its timed solve stage.
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
    workers: int = 1,
) -> dict:
    params: dict = {"s": s, "gain_mode": gain_mode}
    if max_anchor_candidates is not None:
        params["max_anchor_candidates"] = max_anchor_candidates
    if workers != 1:
        params["workers"] = workers
    return params


class _SweepJournal:
    """Crash-safe progress for one sweep: a :class:`ProgressLedger` of
    finished (point, algorithm) runs plus per-solve chunk checkpoints for
    checkpoint-capable solvers.

    ``description`` fingerprints the sweep's full parameterization
    (excluding ``workers`` — a resumed sweep may use a different worker
    count), so a ledger can never be resumed against a different sweep.
    """

    def __init__(self, name: str, description: dict,
                 checkpoint_dir: "str | Path", resume: bool):
        self.dir = Path(checkpoint_dir)
        self.resume = resume
        self.ledger = ProgressLedger(
            self.dir / f"{name}-ledger.json",
            {"kind": "sweep", "name": name, **description},
            resume=resume,
        )
        if self.ledger.stale:
            obs.counter_inc("checkpoint.mismatches")
        self.point_index = 0

    @staticmethod
    def create(name: str, description: dict,
               checkpoint_dir: "str | Path | None",
               resume: bool) -> "_SweepJournal | None":
        if checkpoint_dir is None:
            return None
        return _SweepJournal(name, description, checkpoint_dir, resume)

    def has(self, key: str) -> bool:
        return self.resume and key in self.ledger

    def record(self, key: str) -> RunRecord:
        obs.counter_inc("resume.points_skipped")
        return RunRecord.from_dict(self.ledger.payload(key))

    def mark(self, key: str, record: RunRecord) -> None:
        self.ledger.mark(key, record.to_dict())

    def solve_checkpoint(self, key: str) -> CheckpointConfig:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
        return CheckpointConfig(
            path=self.dir / f"solve-{safe}.json",
            resume=self.resume,
            key=f"{self.ledger.fingerprint}:{key}",
        )


def _run_point(
    result: SweepResult,
    sweep_value: object,
    problem,
    algorithms: Sequence,
    appro_params: dict,
    journal: "_SweepJournal | None" = None,
) -> None:
    point = 0
    if journal is not None:
        point = journal.point_index
        journal.point_index += 1
    with obs.span("sweep.point", sweep=result.name, value=str(sweep_value)):
        obs.counter_inc("sweep.points")
        for name in algorithms:
            key = f"{point}:{sweep_value}:{name}"
            if journal is not None and journal.has(key):
                # This (point, algorithm) run already finished before the
                # crash/interrupt: rehydrate its record from the ledger.
                result.add(sweep_value, journal.record(key))
                continue
            if interrupt_requested():
                raise SolveInterrupted(
                    f"sweep {result.name} interrupted at point "
                    f"{sweep_value!r} ({len(result.records)} runs recorded)",
                    checkpoint_path=(
                        None if journal is None else journal.ledger.path
                    ),
                    partial={"sweep": result.name, "runs": len(result.records),
                             "value": str(sweep_value)},
                )
            params = appro_params if name == "approAlg" else {}
            checkpoint = (
                journal.solve_checkpoint(key) if journal is not None else None
            )
            state = _PIPELINE.solve(problem, name, params,
                                    checkpoint=checkpoint)
            result.add(sweep_value, state.record)
            if journal is not None:
                journal.mark(key, state.record)


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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
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
    journal = _SweepJournal.create("fig4", {
        "ks": list(ks), "num_users": num_users, "s": s, "scale": scale,
        "seed": seed, "repetitions": repetitions,
        "algorithms": list(algorithms),
        "max_anchor_candidates": max_anchor_candidates,
        "gain_mode": gain_mode,
    }, checkpoint_dir, resume)
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
            _run_point(result, k, problem, algorithms, appro, journal)
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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Fig. 5: served users vs n."""
    ns = list(ns)
    result = SweepResult(name="fig5", sweep_param="n")
    journal = _SweepJournal.create("fig5", {
        "ns": list(ns), "num_uavs": num_uavs, "s": s, "scale": scale,
        "seed": seed, "repetitions": repetitions,
        "algorithms": list(algorithms),
        "max_anchor_candidates": max_anchor_candidates,
        "gain_mode": gain_mode,
    }, checkpoint_dir, resume)
    _announce_points(len(ns) * repetitions)
    appro = _appro_params(s, max_anchor_candidates, gain_mode, workers)
    for rep_rng in spawn_rngs(seed, repetitions):
        point_rngs = spawn_rngs(rep_rng, len(ns))
        for n, rng in zip(ns, point_rngs):
            problem = paper_scenario(
                num_users=n, num_uavs=num_uavs, scale=scale, seed=rng
            )
            _run_point(result, n, problem, algorithms, appro, journal)
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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Extended evaluation (ours): served users vs the heterogeneity
    spread ``[C_min, C_max]`` at (roughly) fixed mean capacity.  Isolates
    the paper's thesis that a capacity-aware algorithm benefits from
    spread."""
    from repro.core.problem import ProblemInstance
    from repro.network.fleet import heterogeneous_fleet

    spreads = list(spreads)
    result = SweepResult(name="capacity-spread", sweep_param="C range")
    journal = _SweepJournal.create("capacity-spread", {
        "spreads": [list(sp) for sp in spreads], "num_users": num_users,
        "num_uavs": num_uavs, "s": s, "scale": scale, "seed": seed,
        "max_anchor_candidates": max_anchor_candidates,
        "gain_mode": gain_mode,
    }, checkpoint_dir, resume)
    _announce_points(len(spreads))
    base = paper_scenario(num_users=num_users, num_uavs=num_uavs,
                          scale=scale, seed=seed)
    appro = _appro_params(s, max_anchor_candidates, gain_mode)
    for lo, hi in spreads:
        fleet = heterogeneous_fleet(
            num_uavs, capacity_min=lo, capacity_max=hi, seed=seed
        )
        problem = ProblemInstance(graph=base.graph, fleet=fleet)
        _run_point(result, f"[{lo},{hi}]", problem, ("approAlg",), appro,
                   journal)
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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Extended evaluation (ours): served users vs propagation
    environment.  A demanding ``min_rate_bps`` (default video-grade) makes
    the environment matter; the paper's 2 kbps floor never binds."""
    from repro.workload.fat_tailed import FatTailedWorkload
    from repro.workload.scenarios import SCALES, build_scenario

    environments = list(environments)
    result = SweepResult(name="environment", sweep_param="environment")
    journal = _SweepJournal.create("environment", {
        "environments": list(environments), "num_users": num_users,
        "num_uavs": num_uavs, "min_rate_bps": min_rate_bps, "s": s,
        "scale": scale, "seed": seed,
        "max_anchor_candidates": max_anchor_candidates,
        "gain_mode": gain_mode,
    }, checkpoint_dir, resume)
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
        _run_point(result, env, problem, ("approAlg",), appro, journal)
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
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> SweepResult:
    """Fig. 6: served users (a) and running time (b) vs s.

    Baselines do not depend on ``s``; the paper still plots them as flat
    series, so they are re-run at every sweep point (their runtimes feed
    Fig. 6(b)).
    """
    ss = list(ss)
    result = SweepResult(name="fig6", sweep_param="s")
    journal = _SweepJournal.create("fig6", {
        "ss": list(ss), "num_users": num_users, "num_uavs": num_uavs,
        "scale": scale, "seed": seed, "repetitions": repetitions,
        "algorithms": list(algorithms),
        "max_anchor_candidates": max_anchor_candidates,
        "gain_mode": gain_mode,
    }, checkpoint_dir, resume)
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
            _run_point(result, s, problem, algorithms, appro, journal)
    return result
