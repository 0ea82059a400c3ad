"""The discrete-event mission loop: the repo's one loop in simulated time.

One :class:`~repro.simnet.events.EventQueue` carries every time-dimension
concern — user churn and mobility (:class:`~repro.sim.mobility.GaussianWalk`),
relocation transit (:mod:`repro.sim.relocation`), fault injection
(:mod:`repro.ops.faults`)
— and a pluggable re-solve policy (:mod:`repro.dynamics.policy`) decides
when to re-plan.  ``repro dynamic`` and ``repro mission`` both run it.

Epoch re-solves are **warm-started**: the previous epoch's
:class:`~repro.core.context.SolverContext` is refreshed through
:meth:`~repro.core.context.SolverContext.updated` — only the
user-dependent coverage bitsets are recomputed, the all-pairs hop matrix
and the working graph's Steiner memo carry over — and injected into the
standard :class:`~repro.scenario.pipeline.SolvePipeline`.  A warm
mission's first solve runs on the world's working graph too, so the
mission builds its location graph and hop matrix once.  A cold
re-solve (``warm=False``) rebuilds the :class:`CoverageGraph` and context
from scratch.  Both paths produce bit-identical deployments (the oracle
suite pins this across seeds); warm is just faster.

Consecutive placements become minimal-motion transitions via
:func:`~repro.sim.relocation.plan_relocation` (bottleneck pairing), with
transit modelled as a delayed adoption event when the spec carries a
relocation speed.

A fault (crash, battery, link change, restore) shrinks the network to its
largest connected remnant (:meth:`WorldState.active_placements`), and a
fault-triggered re-solve is a repair: the physical UAVs are paired to the
plan, which is adopted only if it is connected under the degraded links
and serves strictly more users than the remnant
(:meth:`WorldState.repairs`).

Observability: the engine sets ``dynamic.*`` gauges/counters, records
re-solve latency histograms, and calls :func:`repro.obs.record_mark`
after every state change so ``--timeline`` / ``--archive`` runs carry the
full coverage-over-time curve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.problem import ProblemInstance
from repro.dynamics.policy import EPOCH, FAULT, make_policy
from repro.dynamics.sources import ChurnModel, Hotspots
from repro.dynamics.spec import DynamicSpec
from repro.dynamics.world import WorldState
from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.ops.faults import BATTERY, CRASH, FaultSchedule
from repro.scenario.pipeline import SolvePipeline, solver_params
from repro.scenario.registry import DEFAULT_REGISTRY
from repro.sim.mobility import GaussianWalk
from repro.sim.relocation import plan_relocation
from repro.simnet.events import EventQueue
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class EpochSolve:
    """One re-solve the mission performed."""

    t_s: float
    trigger: str                 # "initial" / "epoch" / "fault"
    warm: bool
    latency_s: float
    served: int
    num_placed: int


@dataclass
class DynamicResult:
    """Everything one dynamic mission produced."""

    name: str
    policy: str
    warm: bool
    duration_s: float
    timeline: list = field(default_factory=list)  # (t_s, served, active)
    epochs: list = field(default_factory=list)    # EpochSolve records
    arrivals: int = 0
    departures: int = 0
    faults: int = 0
    final_placements: dict = field(default_factory=dict)
    time_to_serve_s: list = field(default_factory=list)
    unserved_users: int = 0
    wall_s: float = 0.0

    @property
    def resolve_latencies_s(self) -> list:
        """Re-solve latencies *excluding* the initial plan (the warm-vs-
        cold comparison is about epoch re-solves)."""
        return [e.latency_s for e in self.epochs if e.trigger != "initial"]

    @property
    def median_resolve_latency_s(self) -> "float | None":
        lat = self.resolve_latencies_s
        return float(np.median(lat)) if lat else None

    @property
    def coverage_series(self) -> list:
        return [
            served / active if active else 1.0
            for _, served, active in self.timeline
        ]

    @property
    def mean_coverage(self) -> float:
        series = self.coverage_series
        return float(np.mean(series)) if series else 0.0

    @property
    def min_coverage(self) -> float:
        series = self.coverage_series
        return float(min(series)) if series else 0.0

    @property
    def final_coverage(self) -> float:
        series = self.coverage_series
        return float(series[-1]) if series else 0.0

    @property
    def final_served(self) -> int:
        return self.timeline[-1][1] if self.timeline else 0

    @property
    def p95_time_to_serve_s(self) -> "float | None":
        if not self.time_to_serve_s:
            return None
        return float(np.percentile(np.asarray(self.time_to_serve_s), 95))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "policy": self.policy,
            "warm": self.warm,
            "duration_s": self.duration_s,
            "resolves": len(self.epochs),
            "median_resolve_latency_s": self.median_resolve_latency_s,
            "mean_coverage": round(self.mean_coverage, 4),
            "min_coverage": round(self.min_coverage, 4),
            "final_coverage": round(self.final_coverage, 4),
            "final_served": self.final_served,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "faults": self.faults,
            "p95_time_to_serve_s": self.p95_time_to_serve_s,
            "wall_s": round(self.wall_s, 4),
        }


class _Engine:
    """One mission run's mutable machinery (see :func:`run_dynamic`)."""

    def __init__(self, spec: DynamicSpec, warm: "bool | None"):
        self.spec = spec
        self.entry = DEFAULT_REGISTRY.get(spec.algorithm)
        wanted = spec.warm_start if warm is None else warm
        self.warm = wanted and self.entry.supports_warm_start \
            and self.entry.supports_context
        self.params = solver_params(spec, self.entry)
        self.pipeline = SolvePipeline(prebuild_context=True)
        self.policy = make_policy(spec.resolve_policy, spec.drift_threshold)
        self.world = WorldState.from_problem(spec.build())
        self.queue = EventQueue()
        self.churn_rng = ensure_rng(spec.derived_seed("churn"))
        self.mobility_rng = ensure_rng(spec.derived_seed("mobility"))
        self.walk = GaussianWalk(sigma_m=spec.mobility_sigma_m)
        self.bounds = self.world.bounds()
        self.hotspots = Hotspots.draw(
            spec.num_hotspots, self.bounds, spec.hotspot_drift_mps,
            self.churn_rng,
        )
        self.churn = ChurnModel(
            arrival_rate_per_s=spec.arrival_rate_per_s,
            mean_dwell_s=spec.mean_dwell_s,
            sigma_m=spec.hotspot_sigma_m,
            rng=self.churn_rng,
        )
        self.context = None           # last epoch's SolverContext
        self.coverage_at_solve = 0.0
        self.pending_relocate: "int | None" = None
        self.result = DynamicResult(
            name=spec.name, policy=self.policy.name, warm=self.warm,
            duration_s=spec.duration_s,
        )

    # -- solving -------------------------------------------------------------

    def resolve(self, trigger: str, now: float) -> None:
        """Re-plan with the flyable fleet and move to the plan."""
        world = self.world
        available = world.available_uavs()
        if not available or not world.num_active:
            return
        placements, assignment = self._solve(available, trigger, now)
        self._transition(placements, assignment, trigger == FAULT, now)

    def _solve(self, available: list, trigger: str, now: float) -> tuple:
        """One solve over the ``available`` UAVs, warm or cold per the
        mode: (placements, assignment) in fleet indices."""
        world = self.world
        fleet_sub = [world.fleet[k] for k in available]
        start = time.perf_counter()
        with obs.span("dynamic.resolve", trigger=trigger, warm=self.warm):
            if self.warm:
                # The first solve builds the context (hop matrix
                # included) on the world's graph, whose location graph
                # the scenario build made; later ones update it.
                problem = ProblemInstance(graph=world.graph, fleet=fleet_sub)
                context = None if self.context is None \
                    else self.context.updated(problem)
                state = self.pipeline.solve(
                    problem, self.spec.algorithm, self.params,
                    context=context,
                )
            else:
                # Cold: a re-solve that rebuilds everything from scratch,
                # hop matrix included (the historical per-epoch cost).
                graph = CoverageGraph(
                    users=world.graph.user_table(),
                    locations=world.graph.locations,
                    uav_range_m=world.graph.uav_range_m,
                    channel=world.graph.channel,
                    bandwidth_hz=world.graph.bandwidth_hz,
                )
                problem = ProblemInstance(graph=graph, fleet=fleet_sub)
                state = self.pipeline.solve(
                    problem, self.spec.algorithm, self.params
                )
        latency = time.perf_counter() - start
        self.context = state.context
        deployment = state.deployment
        placements = {
            available[i]: loc for i, loc in deployment.placements.items()
        }
        assignment = {
            u: available[i] for u, i in deployment.assignment.items()
        }
        self.result.epochs.append(EpochSolve(
            t_s=now, trigger=trigger, warm=self.warm
            and trigger != "initial",
            latency_s=latency, served=deployment.served_count,
            num_placed=len(placements),
        ))
        obs.counter_inc("dynamic.resolves")
        obs.observe("dynamic.resolve_seconds", latency)
        return placements, assignment

    def _transition(
        self, placements: dict, assignment: dict, repair: bool, now: float
    ) -> None:
        """Turn the new plan into a minimal-motion transition.

        The physical UAVs are paired to the planned positions (bottleneck
        pairing) whenever the fleet is in the air and flies at a finite
        speed, and always for a repair.  Any relocation still in transit
        is withdrawn.  A repair is adopted only if the paired network is
        connected under the degraded links and serves strictly more users
        than the current remnant; a rejected repair leaves the fleet where
        it is.
        """
        world = self.world
        old_active = world.active_placements()
        speed = self.spec.relocation_speed_mps
        transit_s = 0.0
        if repair or (old_active and speed is not None):
            full = ProblemInstance(graph=world.graph, fleet=world.fleet)
            plan = plan_relocation(
                full,
                Deployment(placements=old_active),
                Deployment(placements=placements, assignment=assignment),
                policy="makespan",
            )
            placements = {k: dst for k, (_, dst) in plan.moves.items()}
            if old_active and speed is not None:
                transit_s = plan.max_distance_m / speed
        if self.pending_relocate is not None:
            self.queue.cancel(self.pending_relocate)
            self.pending_relocate = None
        if repair and not world.repairs(placements, now):
            return
        if transit_s <= 0:
            self._adopt(placements, now)
            return
        self.pending_relocate = self.queue.schedule(
            now + transit_s, ("relocate", tuple(sorted(placements.items())))
        )

    def _adopt(self, placements: dict, now: float) -> None:
        self.world.placements = dict(placements)
        self._refresh_baseline = True

    # -- event handlers ------------------------------------------------------

    def handle(self, now: float, payload: tuple) -> None:
        kind, arg = payload
        if kind == "arrival":
            x, y = self.churn.draw_position(self.hotspots)
            uid = self.world.add_user(x, y, now)
            self.queue.schedule_in(
                self.churn.draw_dwell_s(), ("departure", uid)
            )
            self.queue.schedule_in(
                self.churn.next_arrival_gap_s(), ("arrival", None)
            )
            self.result.arrivals += 1
            obs.counter_inc("dynamic.arrivals")
        elif kind == "departure":
            if self.world.remove_user(arg):
                self.result.departures += 1
                obs.counter_inc("dynamic.departures")
        elif kind == "mobility":
            self.hotspots.step(self.spec.mobility_step_s)
            if self.spec.mobility_sigma_m > 0 and self.world.num_active:
                xy = self.walk.step(
                    self.world.user_xy(), self.bounds, self.mobility_rng
                )
                self.world.move_users(xy)
            self.queue.schedule_in(
                self.spec.mobility_step_s, ("mobility", None)
            )
        elif kind == "epoch":
            self._maybe_resolve(EPOCH, now)
            self.queue.schedule_in(self.spec.epoch_s, ("epoch", None))
        elif kind == "fault":
            self.result.faults += 1
            obs.counter_inc("dynamic.faults")
            if arg.kind in (CRASH, BATTERY):
                self.world.down.add(arg.uav_index)
                if arg.kind == BATTERY and arg.duration_s is not None:
                    self.queue.schedule(
                        now + arg.duration_s, ("uav_restored", arg.uav_index)
                    )
            else:
                a, b = arg.link
                self.world.degraded_links.add((min(a, b), max(a, b)))
            self._maybe_resolve(FAULT, now)
        elif kind == "link_restored":
            a, b = arg
            self.world.degraded_links.discard((min(a, b), max(a, b)))
            self._maybe_resolve(FAULT, now)
        elif kind == "uav_restored":
            self.world.down.discard(arg)
            self._maybe_resolve(FAULT, now)
        elif kind == "relocate":
            self.pending_relocate = None
            self._adopt(dict(arg), now)
        else:
            raise AssertionError(f"unhandled dynamics event {kind!r}")

    def _maybe_resolve(self, trigger: str, now: float) -> None:
        served = self.world.evaluate(now)
        coverage = self.world.coverage_fraction(served)
        if self.policy.should_resolve(
            trigger, coverage, self.coverage_at_solve
        ):
            self.resolve(trigger, now)

    # -- the loop ------------------------------------------------------------

    def run(self) -> DynamicResult:
        spec, world, queue = self.spec, self.world, self.queue
        wall_start = time.perf_counter()
        self._refresh_baseline = False

        with obs.span("dynamic.plan"):
            self.resolve("initial", 0.0)
        self._observe(0.0)

        if self.churn.active:
            queue.schedule_in(
                self.churn.next_arrival_gap_s(), ("arrival", None)
            )
            for uid in list(world.user_ids):
                queue.schedule_in(
                    self.churn.draw_dwell_s(), ("departure", uid)
                )
        if spec.mobility_sigma_m > 0 or (
            spec.hotspot_drift_mps > 0 and self.churn.active
        ):
            queue.schedule_in(spec.mobility_step_s, ("mobility", None))
        queue.schedule_in(spec.epoch_s, ("epoch", None))
        if spec.num_crashes or spec.num_links:
            FaultSchedule.random(
                num_uavs=len(world.fleet),
                num_crashes=spec.num_crashes,
                num_links=spec.num_links,
                window_s=(spec.duration_s * 0.1, spec.duration_s * 0.7),
                seed=spec.derived_seed("faults"),
            ).inject(queue)

        for now, payload in queue.drain(until=spec.duration_s):
            self.handle(now, payload)
            self._observe(now)

        self._observe(spec.duration_s)
        result = self.result
        result.final_placements = dict(world.active_placements())
        result.time_to_serve_s = [
            world.first_served_s[uid] - world.arrival_s[uid]
            for uid in world.first_served_s
        ]
        result.unserved_users = len(
            set(world.arrival_s) - set(world.first_served_s)
        )
        result.wall_s = time.perf_counter() - wall_start
        return result

    def _observe(self, now: float) -> None:
        """Evaluate, record the timeline point, update gauges."""
        served = self.world.evaluate(now)
        self.result.timeline.append((now, served, self.world.num_active))
        if self._refresh_baseline:
            self.coverage_at_solve = self.world.coverage_fraction(served)
            self._refresh_baseline = False
        obs.gauge_set("dynamic.clock_s", now)
        obs.gauge_set("dynamic.served", served)
        obs.gauge_set("dynamic.active_users", self.world.num_active)
        obs.record_mark()


@obs.traced("dynamic.run")
def run_dynamic(
    spec: DynamicSpec, warm: "bool | None" = None
) -> DynamicResult:
    """Run one long-horizon dynamic mission end to end.

    ``warm`` overrides the spec's ``warm_start`` (the oracle suite and the
    bench runner force both modes over identical event streams).  Event
    times and deployments are deterministic in the spec seed; only wall-
    clock latencies differ between warm and cold.
    """
    return _Engine(spec, warm).run()
