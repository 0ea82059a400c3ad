"""Outside-in per-layer tracing for the end-to-end benchmark.

:class:`Layers` wraps the public functions of each ``repro`` layer from
the benchmark's side: a module-level function is replaced at every name a
``repro`` module looks it up by, and a method as its class attribute.
``src/`` carries no benchmark code, and :meth:`Layers.restore` puts every
original back.

Every wrapped call records a :class:`Span` (name, start, end, parent span,
task) in memory.  A layer's self time is its span's duration minus the
part of that interval its child spans cover (:func:`self_times`); the self
time of the task's own root span is the time no wrapped layer accounts
for, reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: (layer metric prefix, defining module, function or Class.method).
#: Several targets may feed one layer.
TARGETS = (
    ("scenario.spec_build", "repro.scenario.spec", "ScenarioSpec.build"),
    ("workload.build_scenario", "repro.workload.scenarios", "build_scenario"),
    ("workload.aggregate_problem", "repro.workload.aggregate",
     "aggregate_problem"),
    ("scenario.carve_tiles", "repro.scenario.tiling", "carve_tiles"),
    ("scenario.solve_tiled", "repro.scenario.tiling", "solve_tiled"),
    ("scenario.pipeline_solve", "repro.scenario.pipeline",
     "SolvePipeline.solve"),
    ("core.context_from_problem", "repro.core.context",
     "SolverContext.from_problem"),
    ("core.context_updated", "repro.core.context", "SolverContext.updated"),
    ("core.appro_alg", "repro.core.approx", "appro_alg"),
    ("core.anchored_greedy", "repro.core.greedy", "anchored_greedy"),
    ("core.connect_and_deploy", "repro.core.connect", "connect_and_deploy"),
    ("core.optimal_assignment", "repro.core.assignment", "optimal_assignment"),
    ("core.optimal_assignment", "repro.core.assignment",
     "optimal_cell_assignment"),
    ("network.validate", "repro.network.validate", "validate_deployment"),
    ("network.validate", "repro.network.validate",
     "validate_cell_deployment"),
    ("dynamics.world_evaluate", "repro.dynamics.world", "WorldState.evaluate"),
    ("dynamics.world_churn", "repro.dynamics.world", "WorldState.add_user"),
    ("dynamics.world_churn", "repro.dynamics.world", "WorldState.remove_user"),
    ("dynamics.world_move", "repro.dynamics.world", "WorldState.move_users"),
)

ROOT = "task"


def layer_names() -> list:
    """Every layer prefix, in first-seen order."""
    return list(dict.fromkeys(layer for layer, _, _ in TARGETS))


class Span:
    __slots__ = ("name", "start", "end", "parent", "task", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 task: int, attrs: "tuple | None" = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.task = task
        self.attrs = attrs

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.task,
                self.attrs]


def _appro_attrs(result) -> tuple:
    """(planned, evaluated, skipped) from the returned ApproxResult."""
    stats = result.stats
    return (stats.subsets_total, stats.subsets_evaluated,
            stats.subsets_pruned + stats.subsets_bound_skipped)


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest on a stack."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.task = -1

    def call(self, name: str, fn, args: tuple, kwargs: dict, attrs=None):
        span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                    self.task)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()
        if attrs is not None:
            span.attrs = attrs(result)
        return result

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced


def _repro_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Layers:
    """Install and restore the tracing wrappers around every target."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.originals: dict = {}        # id(wrapper) -> (wrapper, original)
        self.methods: list = []          # (class, attribute, raw original)

    def install(self) -> None:
        for layer, module_name, qualname in TARGETS:
            module = importlib.import_module(module_name)
            attrs = _appro_attrs if layer == "core.appro_alg" else None
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._patch_method(getattr(module, cls_name), attr, layer)
            else:
                self._patch_function(getattr(module, qualname), layer, attrs)

    def _patch_function(self, original, layer: str, attrs) -> None:
        wrapper = self.tracer.wrap(layer, original, attrs)
        self.originals[id(wrapper)] = (wrapper, original)
        for module in _repro_modules():
            names = [k for k, v in vars(module).items() if v is original]
            for name in names:
                setattr(module, name, wrapper)

    def _patch_method(self, cls, attr: str, layer: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.tracer.wrap(layer, raw.__func__))
        else:
            wrapped = self.tracer.wrap(layer, raw)
        self.methods.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def restore(self) -> None:
        # Rescan rather than replay: a module imported after install()
        # picked up the wrapper through `from ... import`.
        for module in _repro_modules():
            found = []
            for name, value in vars(module).items():
                pair = self.originals.get(id(value))
                if pair is not None and pair[0] is value:
                    found.append((name, pair[1]))
            for name, original in found:
                setattr(module, name, original)
        for cls, attr, raw in reversed(self.methods):
            setattr(cls, attr, raw)
        self.originals.clear()
        self.methods.clear()


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span)."""
    children: list = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, cursor = 0.0, span.start
        for kid in sorted(kids, key=lambda k: k.start):
            lo, hi = max(kid.start, cursor), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def layer_metrics(spans: list, walls: dict, span_cost_s: float) -> tuple:
    """Per-layer metric values (per task unless the name says otherwise)
    from a run's pooled spans, plus the worst reconciliation error.

    ``walls`` maps task id to the task's wall time measured outside the
    tracer.  Every span's self time plus the root's (unattributed) self
    time must add up to that wall time; the returned error is the largest
    relative miss over the tasks.
    """
    tasks = len(walls)
    calls: dict = {}
    self_s: dict = {}
    per_task = dict.fromkeys(walls, 0.0)
    planned = evaluated = skipped = 0
    solve_s = []
    unattributed = 0.0
    for span, own in zip(spans, self_times(spans)):
        per_task[span.task] += own
        if span.name == ROOT:
            unattributed += own
            continue
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        if span.name == "scenario.pipeline_solve":
            solve_s.append(span.end - span.start)
        if span.attrs is not None and spans[span.parent].name != span.name:
            # Outermost appro_alg only: a fallback's recursive call returns
            # the very stats its caller returns.
            planned += span.attrs[0]
            evaluated += span.attrs[1]
            skipped += span.attrs[2]
    out = {}
    for layer in layer_names():
        out[f"{layer}.calls"] = calls.get(layer, 0) / tasks
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / tasks
    out["core.appro_alg.subsets_evaluated"] = evaluated / tasks
    out["core.appro_alg.subsets_skipped"] = skipped / tasks
    out["core.appro_alg.skip_ratio"] = skipped / planned if planned else 0.0
    out["scenario.pipeline_solve.p50_s"] = (
        statistics.median(solve_s) if solve_s else 0.0
    )
    out["trace.unattributed_s"] = unattributed / tasks
    out["trace.overhead"] = len(spans) * span_cost_s / sum(walls.values())
    error = max(
        abs(per_task[task] - wall) / wall for task, wall in walls.items()
    )
    return out, error


def _noop() -> None:
    return None


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured on a
    no-op; ``trace.overhead`` is this times the spans recorded, over the
    traced tasks' wall time."""
    traced = Tracer().wrap("calibration", _noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    with_span = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        _noop()
    plain = time.perf_counter() - start
    return max(with_span - plain, 0.0) / calls
