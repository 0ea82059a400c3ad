"""User mobility and periodic re-deployment (extension; Section II-C notes
"users in the disaster zone may move around ... we thus need to re-deploy
the UAVs ... invoking the proposed algorithm", citing the strategy of
[37]).

This module simulates that loop: users perform a bounded Gaussian random
walk; the UAV network is either left where it was (``stale``) or re-planned
every ``redeploy_every`` steps (``refresh``).  The served-user count per
step is computed with the exact Section II-D assignment against the users'
*current* positions, so the trace quantifies how fast a deployment decays
and how much periodic re-deployment recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class GaussianWalk:
    """Per-step displacement ~ N(0, sigma^2) in each axis, reflected at the
    area boundary (users stay inside the disaster zone)."""

    sigma_m: float = 30.0

    def __post_init__(self) -> None:
        if self.sigma_m < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma_m}")

    def step(self, xy: np.ndarray, bounds: tuple, rng: np.random.Generator) -> np.ndarray:
        moved = xy + rng.normal(0.0, self.sigma_m, size=xy.shape)
        lo_x, hi_x, lo_y, hi_y = bounds
        out = moved.copy()
        # Reflect into the box (one reflection suffices for sigma << span).
        out[:, 0] = np.clip(
            np.where(out[:, 0] < lo_x, 2 * lo_x - out[:, 0], out[:, 0]),
            lo_x, hi_x,
        )
        out[:, 0] = np.where(out[:, 0] > hi_x, 2 * hi_x - out[:, 0], out[:, 0])
        out[:, 1] = np.clip(
            np.where(out[:, 1] < lo_y, 2 * lo_y - out[:, 1], out[:, 1]),
            lo_y, hi_y,
        )
        out[:, 1] = np.where(out[:, 1] > hi_y, 2 * hi_y - out[:, 1], out[:, 1])
        return np.clip(out, [lo_x, lo_y], [hi_x, hi_y])


@dataclass
class MobilityTrace:
    """Served users per step for one policy."""

    policy: str
    served: list = field(default_factory=list)
    redeploys: int = 0
    transit_steps: int = 0   # steps spent flying to new positions

    @property
    def mean_served(self) -> float:
        return float(np.mean(self.served)) if self.served else 0.0

    @property
    def final_served(self) -> int:
        return self.served[-1] if self.served else 0


def _working_graph(base: CoverageGraph) -> CoverageGraph:
    """A private mutable clone of ``base`` for the step loop.

    :meth:`CoverageGraph.with_users` shares the location graph / hop
    structure by reference and starts a fresh coverage cache, so each
    step's :meth:`~CoverageGraph.move_users` invalidates only the
    user-side coverage sets instead of reconstructing the whole graph
    (location edges + spatial hashes) from scratch.  The caller's graph
    is never mutated.
    """
    return base.with_users(base.user_table())


def simulate_mobility(
    problem: ProblemInstance,
    planner,
    steps: int = 20,
    mobility: "GaussianWalk | None" = None,
    redeploy_every: "int | None" = None,
    relocation_speed_mps: "float | None" = None,
    step_s: float = 60.0,
    seed: "int | np.random.Generator | None" = None,
) -> MobilityTrace:
    """Simulate ``steps`` mobility steps under one re-deployment policy.

    ``planner`` maps a :class:`ProblemInstance` to a Deployment (e.g.
    ``lambda p: appro_alg(p, s=2).deployment``).  ``redeploy_every=None``
    plans once and keeps the placement (stale policy); ``redeploy_every=r``
    re-plans every ``r`` steps.  The served count at each step always uses
    the exact optimal *assignment* for the current user positions — only
    the *placement* goes stale.

    ``relocation_speed_mps`` (optional) makes re-deployment cost real
    flight time: the relocation makespan (bottleneck pairing via
    :mod:`repro.sim.relocation`) divided by the speed determines how many
    ``step_s``-second steps the fleet keeps serving from the *old*
    positions before the new placement takes effect.  ``None`` keeps the
    paper-style instantaneous re-deployment.
    """
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    if redeploy_every is not None and redeploy_every < 1:
        raise ValueError("redeploy_every must be positive or None")
    if relocation_speed_mps is not None and relocation_speed_mps <= 0:
        raise ValueError("relocation speed must be positive")
    if step_s <= 0:
        raise ValueError("step duration must be positive")
    mobility = mobility if mobility is not None else GaussianWalk()
    rng = ensure_rng(seed)

    base_graph = problem.graph
    xy = base_graph._user_xy.copy()
    xs = xy[:, 0]
    ys = xy[:, 1]
    loc_x = [loc.x for loc in base_graph.locations]
    loc_y = [loc.y for loc in base_graph.locations]
    bounds = (
        min(xs.min(initial=0.0), min(loc_x, default=0.0)),
        max(xs.max(initial=0.0), max(loc_x, default=0.0)),
        min(ys.min(initial=0.0), min(loc_y, default=0.0)),
        max(ys.max(initial=0.0), max(loc_y, default=0.0)),
    )

    policy = "stale" if redeploy_every is None else f"refresh/{redeploy_every}"
    trace = MobilityTrace(policy=policy)
    deployment = planner(problem)
    trace.redeploys += 1
    placements = deployment.placements
    pending: "tuple | None" = None  # (new_placements, steps_remaining)

    graph_now = _working_graph(base_graph)
    for step in range(steps):
        xy = mobility.step(xy, bounds, rng)
        graph_now.move_users(xy)
        problem_now = ProblemInstance(graph=graph_now, fleet=problem.fleet)

        if pending is not None:
            new_placements, remaining = pending
            if remaining <= 0:
                placements = new_placements
                pending = None
            else:
                pending = (new_placements, remaining - 1)
                trace.transit_steps += 1

        if (
            pending is None
            and redeploy_every is not None
            and step > 0
            and step % redeploy_every == 0
        ):
            new_deployment = planner(problem_now)
            trace.redeploys += 1
            if relocation_speed_mps is None:
                placements = new_deployment.placements
            else:
                from repro.sim.relocation import plan_relocation

                old_dep = Deployment(placements=placements)
                plan = plan_relocation(
                    problem_now, old_dep, new_deployment, policy="makespan"
                )
                transit = int(
                    np.ceil(
                        plan.max_distance_m / relocation_speed_mps / step_s
                    )
                )
                if transit <= 0:
                    placements = new_deployment.placements
                else:
                    pending = (new_deployment.placements, transit - 1)
                    trace.transit_steps += 1

        served = optimal_assignment(
            graph_now, problem.fleet, placements
        ).served_count
        trace.served.append(served)
    return trace


def compare_policies(
    problem: ProblemInstance,
    planner,
    steps: int = 20,
    redeploy_every: int = 5,
    mobility: "GaussianWalk | None" = None,
    seed: int = 0,
) -> "tuple[MobilityTrace, MobilityTrace]":
    """(stale, refreshed) traces over the same mobility realisation."""
    stale = simulate_mobility(
        problem, planner, steps=steps, mobility=mobility,
        redeploy_every=None, seed=seed,
    )
    refreshed = simulate_mobility(
        problem, planner, steps=steps, mobility=mobility,
        redeploy_every=redeploy_every, seed=seed,
    )
    return stale, refreshed
