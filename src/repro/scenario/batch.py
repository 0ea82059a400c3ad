"""The batch runner: many :class:`ScenarioSpec`\\ s through one pipeline.

This is the "heavy traffic" primitive from the roadmap: hand
:class:`BatchRunner` a pile of specs and it executes all of them through
the staged :class:`~repro.scenario.pipeline.SolvePipeline`, exploiting the
structure batches have in practice — many specs describe the *same*
physical scenario and differ only in algorithm or engine options (an
algorithm shoot-out, a parameter grid).  Specs are grouped by
:meth:`~repro.scenario.spec.ScenarioSpec.scenario_key`; each group builds
its problem and shared :class:`~repro.core.context.SolverContext` once and
every spec in the group reuses them, so an 8-spec comparison pays for one
scenario build instead of eight.

With ``workers > 1`` the groups are distributed over a process pool
(each worker hydrates specs from JSON and runs the same pipeline); results
come back in submission order either way, so batch output is
deterministic and equal to a sequential run of the same specs.

Crash safety: with ``checkpoint_dir`` set the runner journals every
finished spec into a :class:`~repro.util.ledger.ProgressLedger`
(``batch-ledger.json``, atomic writes), and ``resume=True`` skips specs
the ledger already records — their :class:`RunRecord`\\ s are rehydrated
(``deployment=None``: the solution object is not journaled, only the
result), counted in ``resume.specs_skipped``.  The ledger is
fingerprinted on the full ordered spec list, so it can never resume a
*different* batch.  The same directory also hosts the per-solve chunk
checkpoints (:mod:`repro.core.checkpoint`) for checkpoint-capable
algorithms, so a spec that was killed *mid-solve* resumes inside the
solve rather than restarting it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.context import SolverContext
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec
from repro.util.interrupt import SolveInterrupted, interrupt_requested
from repro.util.ledger import ProgressLedger


@dataclass(frozen=True)
class BatchItem:
    """One spec's outcome, in the batch's submission order."""

    index: int
    spec: ScenarioSpec
    record: "object"               # RunRecord
    deployment: "object | None"    # Deployment (None if the run failed)
    report: "dict | None"
    resumed: bool = False          # rehydrated from the batch ledger

    @property
    def served(self) -> int:
        return self.record.served


@dataclass(frozen=True)
class BatchResult:
    """Outcome of a :meth:`BatchRunner.run` call."""

    items: tuple                   # BatchItem, ordered by input index
    wall_s: float
    groups: int                    # distinct scenarios built
    context_builds: int            # SolverContexts built (shared per group)
    specs_skipped: int = 0         # specs rehydrated by --resume

    def records(self) -> list:
        return [item.record for item in self.items]

    @property
    def total_served(self) -> int:
        return sum(item.served for item in self.items)

    def to_text(self) -> str:
        from repro.util.tables import format_table

        rows = [
            [item.index, item.spec.name, item.spec.algorithm,
             item.record.status + (" (resumed)" if item.resumed else ""),
             item.served, f"{item.record.runtime_s:.3f}"]
            for item in self.items
        ]
        title = (
            f"batch: {len(self.items)} specs over {self.groups} scenario(s), "
            f"{self.context_builds} context build(s), {self.wall_s:.2f}s wall"
        )
        if self.specs_skipped:
            title += f", {self.specs_skipped} resumed from ledger"
        return format_table(
            ["#", "spec", "algorithm", "status", "served", "runtime_s"],
            rows, title=title,
        )


def _group_specs(specs: "list") -> "list":
    """Group (index, spec) pairs by scenario identity, preserving the
    first-seen order of groups and the submission order within each."""
    groups: dict = {}
    for index, spec in enumerate(specs):
        groups.setdefault(spec.scenario_key(), []).append((index, spec))
    return list(groups.values())


def _needs_context(group: "list") -> bool:
    from repro.scenario.registry import DEFAULT_REGISTRY

    return any(
        spec.algorithm in DEFAULT_REGISTRY
        and DEFAULT_REGISTRY.get(spec.algorithm).supports_context
        for _, spec in group
    )


def _run_group(pipeline: SolvePipeline, group: "list") -> "tuple":
    """Run one scenario group; returns (items, contexts_built)."""
    first = group[0][1]
    with obs.span("batch.build", scenario=first.name, specs=len(group)), \
            obs.stage_watermark("batch.build"):
        problem = first.build()
    context = None
    built = 0
    if pipeline.prebuild_context and _needs_context(group):
        with obs.span("batch.context", scenario=first.name), \
                obs.stage_watermark("batch.context"):
            context = SolverContext.from_problem(problem)
        built = 1
    items = []
    for index, spec in group:
        state = pipeline.run(spec, problem=problem, context=context)
        items.append(BatchItem(
            index=index, spec=spec, record=state.record,
            deployment=state.deployment, report=state.report,
        ))
    return items, built


def _run_group_json(payload: "tuple") -> "tuple":
    """Process-pool entry point: hydrate specs from JSON and run the group
    with a freshly constructed pipeline (pipelines hold no picklable
    state worth shipping; workers always use the default registry)."""
    spec_jsons, strict, prebuild_context, checkpoint_dir, resume = payload
    pipeline = SolvePipeline(
        strict=strict, prebuild_context=prebuild_context,
        checkpoint_dir=checkpoint_dir, resume=resume,
    )
    group = [(index, ScenarioSpec.from_json(text))
             for index, text in spec_jsons]
    return _run_group(pipeline, group)


class BatchRunner:
    """Execute many specs, sharing scenario builds and solver contexts.

    ``workers=1`` (default) runs groups sequentially in-process; larger
    values distribute whole groups over a process pool.  ``pipeline``
    defaults to a strict :class:`SolvePipeline` with context prebuilding
    on — pass ``SolvePipeline(strict=False)`` to collect per-spec failures
    into the records instead of raising on the first one.

    ``checkpoint_dir`` enables the batch ledger (and, through the
    pipeline, per-solve chunk checkpoints); ``resume=True`` additionally
    skips ledger-recorded specs and resumes partially solved ones.
    """

    def __init__(
        self,
        pipeline: "SolvePipeline | None" = None,
        workers: int = 1,
        checkpoint_dir: "str | Path | None" = None,
        resume: bool = False,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        pipeline = pipeline if pipeline is not None else SolvePipeline()
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None
            else pipeline.checkpoint_dir
        )
        self.resume = resume or pipeline.resume
        if (
            self.checkpoint_dir is not None
            and pipeline.checkpoint_dir != self.checkpoint_dir
        ):
            # Rebuild the pipeline so per-solve checkpoints land in the
            # same directory as the batch ledger.
            pipeline = SolvePipeline(
                stages=pipeline.stages, registry=pipeline.registry,
                strict=pipeline.strict,
                prebuild_context=pipeline.prebuild_context,
                checkpoint_dir=self.checkpoint_dir, resume=self.resume,
            )
        self.pipeline = pipeline
        self.workers = workers

    def _ledger(self, specs: "list") -> "ProgressLedger | None":
        if self.checkpoint_dir is None:
            return None
        ledger = ProgressLedger(
            self.checkpoint_dir / "batch-ledger.json",
            {"kind": "batch", "specs": [spec.to_json() for spec in specs]},
            resume=self.resume,
        )
        if ledger.stale:
            obs.counter_inc("checkpoint.mismatches")
        return ledger

    def run(self, specs: "list | tuple") -> BatchResult:
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, ScenarioSpec):
                raise TypeError(
                    f"BatchRunner.run wants ScenarioSpecs, got {spec!r}"
                )
        start = time.perf_counter()
        ledger = self._ledger(specs)

        items: list = []
        todo = list(enumerate(specs))
        if ledger is not None and self.resume and len(ledger):
            # Function-level import: the scenario layer sits below
            # repro.sim, so the leaf results module is pulled in only on
            # the resume path (same escape hatch as pipeline.report).
            from repro.sim.results import RunRecord

            remaining = []
            for index, spec in todo:
                if str(index) in ledger:
                    payload = ledger.payload(str(index))
                    items.append(BatchItem(
                        index=index, spec=spec,
                        record=RunRecord.from_dict(payload["record"]),
                        deployment=None,
                        report=payload.get("report"),
                        resumed=True,
                    ))
                else:
                    remaining.append((index, spec))
            todo = remaining
            if items:
                obs.counter_inc("resume.specs_skipped", len(items))
        skipped = len(items)

        groups = _regroup(todo)
        obs.counter_inc("batch.specs", len(todo))
        obs.counter_inc("batch.groups", len(groups))
        if not todo:
            # Everything was rehydrated (or the caller passed no specs):
            # never spin up a pool for zero groups.
            outcomes = []
        elif self.workers > 1 and len(groups) > 1:
            outcomes = self._run_pooled(groups, ledger)
        else:
            outcomes = self._run_sequential(groups, ledger, items, start)
        context_builds = 0
        for group_items, built in outcomes:
            items.extend(group_items)
            context_builds += built
        items.sort(key=lambda item: item.index)
        return BatchResult(
            items=tuple(items),
            wall_s=time.perf_counter() - start,
            groups=len(groups),
            context_builds=context_builds,
            specs_skipped=skipped,
        )

    def _record_items(self, ledger: "ProgressLedger | None",
                      group_items: "list") -> None:
        if ledger is None:
            return
        for item in group_items:
            ledger.mark(
                str(item.index),
                {"record": item.record.to_dict(), "report": item.report},
                flush=False,
            )
        ledger.flush()

    def _run_sequential(self, groups: "list",
                        ledger: "ProgressLedger | None",
                        done_items: "list", start: float) -> "list":
        outcomes = []
        for group in groups:
            if interrupt_requested():
                finished = len(done_items) + sum(
                    len(group_items) for group_items, _ in outcomes
                )
                raise SolveInterrupted(
                    f"batch interrupted after {finished} spec(s); "
                    + ("ledger records completed specs"
                       if ledger is not None else "no checkpoint configured"),
                    checkpoint_path=None if ledger is None else ledger.path,
                    partial={"specs_done": finished,
                             "elapsed_s": time.perf_counter() - start},
                )
            outcome = _run_group(self.pipeline, group)
            self._record_items(ledger, outcome[0])
            outcomes.append(outcome)
        return outcomes

    def _run_pooled(self, groups: "list",
                    ledger: "ProgressLedger | None") -> "list":
        from concurrent.futures import ProcessPoolExecutor

        if not groups:
            # Guard against ProcessPoolExecutor(max_workers=0): callers
            # normally short-circuit empty batches, but keep this safe
            # under direct use too.
            return []
        checkpoint_dir = (
            None if self.pipeline.checkpoint_dir is None
            else str(self.pipeline.checkpoint_dir)
        )
        payloads = [
            (
                [(index, spec.to_json()) for index, spec in group],
                self.pipeline.strict,
                self.pipeline.prebuild_context,
                checkpoint_dir,
                self.pipeline.resume,
            )
            for group in groups
        ]
        workers = max(1, min(self.workers, len(groups)))
        outcomes = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for outcome in pool.map(_run_group_json, payloads):
                self._record_items(ledger, outcome[0])
                outcomes.append(outcome)
        return outcomes


def _regroup(indexed_specs: "list") -> "list":
    """Like :func:`_group_specs` but over (original_index, spec) pairs."""
    groups: dict = {}
    for index, spec in indexed_specs:
        groups.setdefault(spec.scenario_key(), []).append((index, spec))
    return list(groups.values())


def run_specs(
    specs: "list | tuple",
    workers: int = 1,
    strict: bool = True,
    checkpoint_dir: "str | Path | None" = None,
    resume: bool = False,
) -> BatchResult:
    """One-call convenience: ``BatchRunner(...).run(specs)``."""
    pipeline = SolvePipeline(strict=strict)
    return BatchRunner(
        pipeline=pipeline, workers=workers,
        checkpoint_dir=checkpoint_dir, resume=resume,
    ).run(specs)
