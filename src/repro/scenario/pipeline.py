"""The staged solve pipeline: build -> context -> solve -> validate -> report.

:class:`SolvePipeline` is the single path from a described scenario
(:class:`~repro.scenario.spec.ScenarioSpec`) to a validated solution.
Each stage is a named, traced, swappable callable over a shared
:class:`PipelineState`:

``build``
    instantiate the spec's :class:`~repro.core.problem.ProblemInstance`
    (skipped when the caller injects a prebuilt problem — the batch
    runner and the dynamics engine do);
``context``
    precompute the shared :class:`~repro.core.context.SolverContext` for
    solvers that accept one (lossless: the solver would build the
    identical structure internally), enabling reuse across runs;
``solve``
    the timed dispatch through the algorithm registry, emitting the
    ``runner.solve`` span and the ``runner.solves`` /
    ``runner.solve_seconds`` metrics;
``validate``
    re-check the deployment against the problem constraints
    (connectivity-exempt algorithms are honoured via the registry's
    ``requires_connected`` flag);
``report``
    condense everything into the classic :class:`~repro.sim.results.RunRecord`
    plus a small summary dict.

Swap a stage with :meth:`SolvePipeline.with_stage` to intercept any step
(e.g. a caching build, a custom report) without forking the flow.  The
golden-equivalence test (``tests/test_golden_equivalence.py``) pins the
pipeline's output bit-identical to direct registry calls and to a
hand-rolled sweep loop.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.core.checkpoint import CheckpointConfig
from repro.core.context import SolverContext
from repro.core.greedy import GAIN_MODES
from repro.util.ledger import work_fingerprint
from repro.network.deployment import CellDeployment
from repro.network.validate import (
    ValidationError,
    validate_cell_deployment,
    validate_deployment,
)
from repro.scenario.registry import (
    DEFAULT_REGISTRY,
    AlgorithmEntry,
    AlgorithmRegistry,
)
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.util.timing import Stopwatch


@dataclass
class PipelineState:
    """Everything a run accumulates while flowing through the stages."""

    entry: AlgorithmEntry
    registry: AlgorithmRegistry
    spec: "ScenarioSpec | None" = None
    strict: bool = True
    validate: bool = True
    prebuild_context: bool = True
    params: dict = field(default_factory=dict)   # caller-level solve kwargs
    problem: "object | None" = None
    context: "SolverContext | None" = None
    deployment: "object | None" = None
    elapsed_s: float = 0.0
    status: str = "pending"
    error: "str | None" = None
    record: "object | None" = None        # RunRecord once reported
    report: "dict | None" = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def served(self) -> int:
        return self.deployment.served_count if self.deployment else 0


# -- the default stages ------------------------------------------------------


def build_stage(state: PipelineState) -> PipelineState:
    """Instantiate the spec's problem unless one was injected."""
    if state.problem is None:
        if state.spec is None:
            raise ValueError(
                "pipeline needs a ScenarioSpec or an injected problem"
            )
        state.problem = state.spec.build()
    return state


def context_stage(state: PipelineState) -> PipelineState:
    """Precompute the solver context for context-aware algorithms.

    Lossless: solvers build the identical structure internally when no
    context is passed, so prebuilding only moves the cost into its own
    traced stage (and lets the batch runner reuse it across specs)."""
    if (
        state.context is None
        and state.prebuild_context
        and state.entry.supports_context
    ):
        state.context = SolverContext.from_problem(state.problem)
    return state


def solve_stage(state: PipelineState) -> PipelineState:
    """Timed dispatch through the registry entry.

    With ``strict`` a raising solver propagates; otherwise the error is
    captured into the state (``status="error"``).  A state that already
    failed (parameters the solver does not take) is not solved.
    """
    if state.status == "error":
        return state
    params = dict(state.params)
    if state.context is not None and state.entry.supports_context:
        params["context"] = state.context
    obs.counter_inc("runner.solves")
    watch = Stopwatch()
    try:
        with watch, obs.span("runner.solve", algorithm=state.entry.name):
            state.deployment = state.entry.solve(state.problem, **params)
        obs.observe("runner.solve_seconds", watch.elapsed)
        state.status = "ok"
    except Exception as exc:  # noqa: BLE001 - captured into the record
        if state.strict:
            raise
        state.status = "error"
        state.error = f"{type(exc).__name__}: {exc}"
        state.deployment = None
    state.elapsed_s = watch.elapsed
    return state


def validate_stage(state: PipelineState) -> PipelineState:
    """Re-validate the deployment against the problem constraints."""
    if not state.validate or state.status != "ok" or state.deployment is None:
        return state
    # Demand-cell solves emit a CellDeployment (cell->UAV unit flows);
    # everything else — including the singleton-cell degenerate path,
    # which deliberately reuses the per-user assignment — stays on the
    # classic validator.
    check = (
        validate_cell_deployment
        if isinstance(state.deployment, CellDeployment)
        else validate_deployment
    )
    try:
        check(
            state.problem.graph,
            state.problem.fleet,
            state.deployment,
            require_connected=state.entry.requires_connected,
        )
    except ValidationError as exc:
        if state.strict:
            raise
        state.status = "invalid"
        state.error = str(exc)
    return state


def report_stage(state: PipelineState) -> PipelineState:
    """Condense the run into a :class:`RunRecord` + summary dict."""
    # Imported here, not at module level: the scenario layer sits below
    # repro.sim, and importing the sim *package* at import time would cycle
    # back through the sweep drivers that build on this pipeline.
    from repro.sim.results import RunRecord

    problem = state.problem
    # The checkpoint config is process-local run state, not a result
    # parameter: keep it out of the durable record.
    record_params = {
        k: v for k, v in state.params.items() if k != "checkpoint"
    }
    # On demand-cell problems the graph's "users" are cells; report the
    # underlying member count so records stay comparable across paths.
    num_users = getattr(problem.graph, "total_demand", problem.num_users)
    state.record = RunRecord(
        algorithm=state.entry.name,
        served=state.served if state.status in ("ok", "invalid") else 0,
        runtime_s=state.elapsed_s,
        num_users=num_users,
        num_uavs=problem.num_uavs,
        params=record_params,
        status=state.status,
        error=state.error,
    )
    state.report = {
        "algorithm": state.entry.name,
        "served": state.record.served,
        "num_users": num_users,
        "runtime_s": state.elapsed_s,
        "status": state.status,
    }
    return state


def _unknown(problem, **params):
    """The solve of an algorithm the registry does not know; a failed
    state never reaches it."""
    raise SpecError("no such algorithm")


DEFAULT_STAGES = (
    ("build", build_stage),
    ("context", context_stage),
    ("solve", solve_stage),
    ("validate", validate_stage),
    ("report", report_stage),
)


def solver_params(spec: ScenarioSpec, entry) -> dict:
    """The spec's algorithm parameters plus the engine options its
    registry ``entry`` accepts (``workers`` only where supported).

    A parameter the entry's solver does not take is a :class:`SpecError`
    naming it and the accepted names, and so is a ``gain_mode`` other
    than ``"exact"`` or ``"fast"``."""
    _problem, *rest = inspect.signature(entry.solve).parameters
    accepted = [name for name in rest if not name.startswith("_")]
    unknown = sorted(set(spec.algorithm_params) - set(accepted))
    if unknown:
        raise SpecError(
            f"algorithm {entry.name!r} takes no parameter(s) "
            f"{', '.join(unknown)}; accepted: {', '.join(accepted) or 'none'}"
        )
    mode = spec.algorithm_params.get("gain_mode", GAIN_MODES[0])
    if mode not in GAIN_MODES:
        raise SpecError(
            f"algorithm {entry.name!r} parameter gain_mode must be "
            f"'exact' or 'fast', got {mode!r}"
        )
    params = dict(spec.algorithm_params)
    if entry.supports_workers and spec.workers != 1:
        params["workers"] = spec.workers
    return params


class SolvePipeline:
    """Run specs (or prebuilt problems) through the staged solve flow.

    ``strict=False`` captures solver errors / invalid deployments into the
    record (``status`` = ``"error"`` / ``"invalid"``) instead of raising,
    so a sweep survives one bad run.  ``prebuild_context=False`` skips the
    context stage's precomputation, leaving context-aware solvers to build
    their own — the experiment grids use this so each solve's timed stage
    covers its own context build.
    """

    def __init__(
        self,
        stages: "tuple | list | None" = None,
        registry: "AlgorithmRegistry | None" = None,
        strict: bool = True,
        prebuild_context: bool = True,
        checkpoint_dir: "str | Path | None" = None,
        resume: bool = False,
    ):
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.strict = strict
        self.prebuild_context = prebuild_context
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.resume = resume
        self.stages = tuple(stages) if stages is not None else DEFAULT_STAGES
        names = [name for name, _ in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names in {names}")

    def stage_names(self) -> tuple:
        return tuple(name for name, _ in self.stages)

    def with_stage(self, name: str, fn: "object") -> "SolvePipeline":
        """A copy of the pipeline with stage ``name`` replaced by ``fn``."""
        if name not in self.stage_names():
            raise ValueError(
                f"unknown stage {name!r}; stages: {', '.join(self.stage_names())}"
            )
        stages = tuple(
            (n, fn if n == name else f) for n, f in self.stages
        )
        return SolvePipeline(
            stages=stages, registry=self.registry, strict=self.strict,
            prebuild_context=self.prebuild_context,
            checkpoint_dir=self.checkpoint_dir, resume=self.resume,
        )

    def spec_checkpoint(self, spec: ScenarioSpec) -> "CheckpointConfig | None":
        """The :class:`CheckpointConfig` this pipeline gives ``spec``.

        ``None`` unless a ``checkpoint_dir`` is configured and the spec's
        algorithm supports checkpointing.  The file name and the external
        fingerprint key both derive from the spec's full solve identity
        (scenario key + algorithm + params + engine options), so two
        different specs can never share — or cross-resume — a snapshot.
        """
        if self.checkpoint_dir is None:
            return None
        if not self.registry.get(spec.algorithm).supports_checkpoint:
            return None
        key = work_fingerprint({
            "scenario_key": list(spec.scenario_key()),
            "algorithm": spec.algorithm,
            "algorithm_params": json.dumps(
                spec.algorithm_params, sort_keys=True, default=repr
            ),
        })
        return CheckpointConfig(
            path=self.checkpoint_dir / f"solve-{spec.name}-{key}.json",
            resume=self.resume,
            key=key,
        )

    # -- entry points --------------------------------------------------------

    def run(
        self,
        spec: ScenarioSpec,
        problem: "object | None" = None,
        context: "SolverContext | None" = None,
    ) -> PipelineState:
        """Drive one spec through every stage.

        ``problem`` / ``context`` inject prebuilt structure (the batch
        runner shares them across specs with equal scenario keys); the
        build/context stages then skip their work.

        A spec with a ``tiles`` grid (and no ``tile_index``) routes
        through :func:`repro.scenario.tiling.solve_tiled`, which builds
        the scenario once, carves it, solves each tile problem through
        this same pipeline, and stitches the result into one state.
        """
        try:
            entry = self.registry.get(spec.algorithm)
        except KeyError as exc:
            if self.strict:
                raise
            # Recorded like an unknown parameter: the solve stage skips
            # the failed state, and the record names the spec's algorithm.
            return self._execute(PipelineState(
                entry=AlgorithmEntry(name=spec.algorithm, solve=_unknown),
                registry=self.registry, spec=spec, strict=False,
                validate=spec.validate,
                prebuild_context=self.prebuild_context, problem=problem,
                context=context, status="error",
                error=f"SpecError: {exc.args[0]}",
            ))
        if spec.aggregation == "cells" and not entry.supports_cells:
            raise SpecError(
                f"algorithm {entry.name!r} does not support "
                "aggregation='cells' (no supports_cells capability)"
            )
        if spec.tiles is not None and spec.tile_index is None:
            from repro.scenario.tiling import solve_tiled

            return solve_tiled(
                spec, registry=self.registry, strict=self.strict
            )
        state = PipelineState(
            entry=entry, registry=self.registry, spec=spec,
            strict=self.strict, validate=spec.validate,
            prebuild_context=self.prebuild_context,
            problem=problem, context=context,
        )
        try:
            state.params = solver_params(spec, entry)
        except SpecError as exc:
            if self.strict:
                raise
            # Recorded like a solver error: the solve stage skips it.
            state.status, state.error = "error", f"SpecError: {exc}"
        if entry.supports_checkpoint and "checkpoint" not in state.params:
            config = self.spec_checkpoint(spec)
            if config is not None:
                state.params["checkpoint"] = config
        return self._execute(state)

    def solve(
        self,
        problem: "object",
        algorithm: str,
        params: "dict | None" = None,
        context: "SolverContext | None" = None,
        checkpoint: "CheckpointConfig | None" = None,
    ) -> PipelineState:
        """Drive an already-built problem through the stages.

        This is the adapter the CLI's ``selfcheck`` and legacy-scenario
        paths, the dynamics engine and the figure benchmarks use; the
        deployment is kept on the returned state, which is always
        validated.  ``checkpoint`` is forwarded to the solver when it
        supports one (silently dropped otherwise, so callers can pass it
        unconditionally).
        """
        entry = self.registry.get(algorithm)
        params = dict(params or {})
        if checkpoint is not None and entry.supports_checkpoint:
            params["checkpoint"] = checkpoint
        state = PipelineState(
            entry=entry, registry=self.registry, spec=None,
            strict=self.strict, prebuild_context=self.prebuild_context,
            params=params, problem=problem, context=context,
        )
        return self._execute(state)

    def _execute(self, state: PipelineState) -> PipelineState:
        for name, fn in self.stages:
            # stage_watermark is the profiler's per-stage memory hook: a
            # shared no-op unless `repro profile` (or an explicit
            # SamplingProfiler) is active.
            with obs.span(f"pipeline.{name}", algorithm=state.entry.name), \
                    obs.stage_watermark(f"pipeline.{name}"):
                result = fn(state)
            state = result if result is not None else state
        return state
