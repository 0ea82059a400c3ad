"""Algorithm registry, timed runner, and the solver watchdog.

Every algorithm takes a :class:`ProblemInstance` and returns a
:class:`Deployment`; the runner times it, validates the output against the
problem constraints, and wraps everything into a :class:`RunRecord`.

:func:`solve_with_fallback` adds a fault-tolerant path for callers with a
deadline: run the preferred solver under a wall-clock budget and, when it
times out, raises, or produces an invalid deployment, fall back
deterministically through a configured chain
(default ``approAlg -> MCS -> GreedyAssign``), recording every attempt
instead of crashing the experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro import obs
from repro.core.problem import ProblemInstance
from repro.network.deployment import Deployment
from repro.network.validate import ValidationError, validate_deployment
from repro.scenario.registry import DEFAULT_REGISTRY
from repro.sim.results import AttemptRecord, RunRecord
from repro.util.timing import Stopwatch

# The dispatch tables are *views* of the algorithm registry
# (:mod:`repro.scenario.registry`), which owns the solver entries and
# their capability flags.  ALGORITHMS stays a plain mutable dict so tests
# and callers can still patch one-off solvers into this module without
# touching the shared registry.
ALGORITHMS = DEFAULT_REGISTRY.callables()

# The connectivity-free reference point intentionally violates constraint
# (iii); every other algorithm must produce connected deployments.
_UNCONNECTED_OK = DEFAULT_REGISTRY.unconnected_ok()

# Solvers whose inner loop accepts a ``progress`` callback, so the watchdog
# can abort them mid-run when the wall-clock budget expires.  This covers
# the parallel engine too: ``appro_alg(workers=N)`` invokes ``progress``
# from the parent process between completed chunks, and a SolverTimeout
# raised there cancels the outstanding futures and shuts the pool down.
_COOPERATIVE = DEFAULT_REGISTRY.cooperative()


class SolverTimeout(Exception):
    """Raised inside a cooperative solver when its wall-clock budget expires."""


def run_algorithm(
    problem: ProblemInstance,
    name: str,
    validate: bool = True,
    strict: bool = True,
    **params: object,
) -> RunRecord:
    """Run one registered algorithm, timed and (by default) validated.

    With ``strict=True`` (default) a raising solver or an invalid
    deployment propagates, as experiments historically expected.  With
    ``strict=False`` the error is captured instead: the returned record
    carries ``status`` (``"error"`` / ``"invalid"``) and ``error``, so a
    sweep survives one bad run and keeps the evidence.
    """
    try:
        algorithm = ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(ALGORITHMS))
        raise KeyError(f"unknown algorithm {name!r}; known: {known}") from None

    obs.counter_inc("runner.solves")
    watch = Stopwatch()
    try:
        with watch, obs.span("runner.solve", algorithm=name):
            deployment = algorithm(problem, **params)
        # One observation per solve (parent-side), so the distribution is
        # identical for any worker count and feeds `repro perf-diff`-style
        # after-the-fact analysis without a trace file.
        obs.observe("runner.solve_seconds", watch.elapsed)
    except Exception as exc:  # noqa: BLE001 - captured into the record
        if strict:
            raise
        return RunRecord(
            algorithm=name,
            served=0,
            runtime_s=watch.elapsed,
            num_users=problem.num_users,
            num_uavs=problem.num_uavs,
            params=dict(params),
            status="error",
            error=f"{type(exc).__name__}: {exc}",
        )

    status, error = "ok", None
    if validate:
        try:
            validate_deployment(
                problem.graph,
                problem.fleet,
                deployment,
                require_connected=name not in _UNCONNECTED_OK,
            )
        except ValidationError as exc:
            if strict:
                raise
            status, error = "invalid", str(exc)
    return RunRecord(
        algorithm=name,
        served=deployment.served_count,
        runtime_s=watch.elapsed,
        num_users=problem.num_users,
        num_uavs=problem.num_uavs,
        params=dict(params),
        status=status,
        error=error,
    )


# Watchdog fallback order, derived from the registry's tier flags
# (approAlg -> MCS -> GreedyAssign with the built-in entries).
DEFAULT_FALLBACK_CHAIN = DEFAULT_REGISTRY.fallback_chain()


@dataclass(frozen=True)
class FallbackResult:
    """Outcome of a watchdog run: the first deployment that survived
    timing, exceptions and validation, plus the full attempt trail."""

    deployment: "Deployment | None"
    record: RunRecord

    @property
    def ok(self) -> bool:
        return self.deployment is not None

    @property
    def answered_by(self) -> "str | None":
        return self.record.algorithm if self.ok else None


@dataclass(frozen=True)
class WatchdogConfig:
    """Configuration of :func:`solve_with_fallback`."""

    chain: tuple = DEFAULT_FALLBACK_CHAIN
    budget_s: "float | None" = None          # wall clock across all tiers
    validate: bool = True
    params: dict = field(default_factory=dict)  # algorithm name -> kwargs

    def __post_init__(self) -> None:
        if not self.chain:
            raise ValueError("fallback chain must name at least one solver")
        for name in self.chain:
            if name not in ALGORITHMS:
                known = ", ".join(sorted(ALGORITHMS))
                raise ValueError(
                    f"unknown algorithm {name!r} in chain; known: {known}"
                )
        if self.budget_s is not None and self.budget_s < 0:
            raise ValueError(f"budget must be non-negative, got {self.budget_s}")


def _deadline_progress(deadline: float, inner: "object | None"):
    """A progress callback that aborts a cooperative solver at ``deadline``
    (chaining any caller-supplied callback first)."""

    def progress(done: int, total: int) -> None:
        if inner is not None:
            inner(done, total)
        if time.perf_counter() >= deadline:
            raise SolverTimeout(
                f"aborted after {done}/{total} subsets: budget exhausted"
            )

    return progress


def solve_with_fallback(
    problem: ProblemInstance,
    config: "WatchdogConfig | None" = None,
) -> FallbackResult:
    """Run the configured solver chain under one wall-clock budget.

    Tiers are tried in order; a tier is charged against the shared budget,
    and cooperative solvers (``approAlg``) are aborted mid-run via their
    ``progress`` hook once the budget expires.  Non-cooperative baselines
    run to completion — their completed result is kept even if late, since
    discarding a valid answer helps nobody.  The final tier always runs
    (the chain's last resort must answer).  A tier whose output fails
    validation is recorded as ``"invalid"`` and the chain continues.

    Never raises on solver failure: if every tier fails, the returned
    record has ``status="failed"`` and ``deployment`` is ``None``.
    """
    config = config if config is not None else WatchdogConfig()
    start = time.perf_counter()
    deadline = None if config.budget_s is None else start + config.budget_s
    attempts: list = []
    last = len(config.chain) - 1

    for i, name in enumerate(config.chain):
        params = dict(config.params.get(name, {}))
        if deadline is not None and i < last and time.perf_counter() >= deadline:
            attempts.append(AttemptRecord(
                algorithm=name, elapsed_s=0.0, status="timeout",
                error="budget exhausted before start",
            ))
            continue
        if deadline is not None and name in _COOPERATIVE:
            params["progress"] = _deadline_progress(
                deadline, params.get("progress")
            )

        watch = Stopwatch()
        try:
            with watch, obs.span("runner.tier", algorithm=name, tier=i):
                deployment = ALGORITHMS[name](problem, **params)
            obs.observe("runner.tier_seconds", watch.elapsed)
        except SolverTimeout as exc:
            obs.counter_inc("runner.timeouts")
            attempts.append(AttemptRecord(
                algorithm=name, elapsed_s=watch.elapsed, status="timeout",
                error=str(exc),
            ))
            continue
        except Exception as exc:  # noqa: BLE001 - captured into the trail
            attempts.append(AttemptRecord(
                algorithm=name, elapsed_s=watch.elapsed, status="error",
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue

        if config.validate:
            try:
                validate_deployment(
                    problem.graph,
                    problem.fleet,
                    deployment,
                    require_connected=name not in _UNCONNECTED_OK,
                )
            except ValidationError as exc:
                attempts.append(AttemptRecord(
                    algorithm=name, elapsed_s=watch.elapsed, status="invalid",
                    error=str(exc),
                ))
                continue

        attempts.append(AttemptRecord(
            algorithm=name, elapsed_s=watch.elapsed, status="ok",
        ))
        record = RunRecord(
            algorithm=name,
            served=deployment.served_count,
            runtime_s=time.perf_counter() - start,
            num_users=problem.num_users,
            num_uavs=problem.num_uavs,
            params=dict(config.params.get(name, {})),
            status="ok",
            attempts=tuple(attempts),
        )
        return FallbackResult(deployment=deployment, record=record)

    record = RunRecord(
        algorithm=config.chain[-1],
        served=0,
        runtime_s=time.perf_counter() - start,
        num_users=problem.num_users,
        num_uavs=problem.num_uavs,
        params=dict(config.params.get(config.chain[-1], {})),
        status="failed",
        error="; ".join(
            f"{a.algorithm}: {a.status}" for a in attempts
        ) or "empty chain",
        attempts=tuple(attempts),
    )
    return FallbackResult(deployment=None, record=record)
