"""The algorithm registry: names -> solver entries with capability flags.

This is the single source of truth for "what can this repo solve with,
and what does each solver support".  The solve pipeline
(:mod:`repro.scenario.pipeline`) dispatches through
:data:`DEFAULT_REGISTRY` and consults the capability flags to decide which
engine options (``workers``, a prebuilt
:class:`~repro.core.context.SolverContext`, a checkpoint) an algorithm may
legally receive.

Registering a new solver is one :meth:`AlgorithmRegistry.register` call;
every entry point (CLI, sweeps, batch runner, dynamics engine) picks it up
from there.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.baselines.greedy_assign import greedy_assign
from repro.baselines.max_throughput import max_throughput
from repro.baselines.mcs import mcs
from repro.baselines.motionctrl import motion_ctrl
from repro.baselines.random_connected import random_connected
from repro.baselines.unconstrained import unconstrained_greedy
from repro.core.approx import appro_alg
from repro.core.problem import ProblemInstance


def _appro(problem: ProblemInstance, **kw: object):
    """Algorithm 2, adapted to the common signature (Deployment out)."""
    return appro_alg(problem, **kw).deployment


# The parameters a spec's ``algorithm_params`` may name are Algorithm 2's.
_appro.__signature__ = inspect.signature(appro_alg)


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered solver and its capabilities.

    ``solve`` maps ``(problem, **params) -> Deployment``; its signature
    names the parameters a spec may pass.  The flags gate
    engine options: the pipeline only forwards ``workers=N`` when
    ``supports_workers`` is set, and validates connectivity only when
    ``requires_connected`` is set.
    """

    name: str
    solve: "object"            # callable(problem, **params) -> Deployment
    description: str = ""
    supports_workers: bool = False
    supports_context: bool = False
    supports_checkpoint: bool = False
    requires_connected: bool = True
    #: The solver understands demand-cell problems (graphs carrying
    #: ``cell_demands``; see :mod:`repro.workload.aggregate`) — it weights
    #: gains by demand and emits a cell-arc assignment.  The pipeline
    #: refuses ``aggregation="cells"`` specs for solvers without it.
    supports_cells: bool = False
    #: The solver benefits from a recycled :class:`SolverContext` across
    #: epoch re-solves (see :meth:`SolverContext.updated`).  The dynamics
    #: engine only warm-starts re-solves for solvers carrying this flag;
    #: everything else gets a cold build each epoch.
    supports_warm_start: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("algorithm entry needs a non-empty name")
        if not callable(self.solve):
            raise TypeError(
                f"entry {self.name!r}: solve must be callable, got "
                f"{self.solve!r}"
            )


class AlgorithmRegistry:
    """An ordered mapping of algorithm names to :class:`AlgorithmEntry`."""

    def __init__(self, entries: "tuple | list" = ()):
        self._entries: dict = {}
        for entry in entries:
            self.register(entry)

    def register(self, entry: AlgorithmEntry, replace: bool = False) -> None:
        if entry.name in self._entries and not replace:
            raise ValueError(
                f"algorithm {entry.name!r} already registered "
                "(pass replace=True to override)"
            )
        self._entries[entry.name] = entry

    def get(self, name: str) -> AlgorithmEntry:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(sorted(self._entries))
            raise KeyError(
                f"unknown algorithm {name!r}; known: {known}"
            ) from None

    def names(self) -> list:
        return sorted(self._entries)

    def entries(self) -> list:
        return [self._entries[name] for name in sorted(self._entries)]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self.entries())

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()


def default_registry() -> AlgorithmRegistry:
    """A fresh registry with every built-in solver."""
    return AlgorithmRegistry((
        AlgorithmEntry(
            "approAlg", _appro,
            description="Algorithm 2: anchored matroid greedy + MST connect "
            "(the paper's O(sqrt(s/K))-approximation)",
            supports_workers=True, supports_context=True,
            supports_checkpoint=True,
            supports_cells=True, supports_warm_start=True,
        ),
        AlgorithmEntry(
            "MCS", mcs,
            description="maximum connected-component seeding baseline",
        ),
        AlgorithmEntry(
            "MotionCtrl", motion_ctrl,
            description="local-search motion-control baseline",
        ),
        AlgorithmEntry(
            "GreedyAssign", greedy_assign,
            description="capacity-greedy assignment baseline",
        ),
        AlgorithmEntry(
            "maxThroughput", max_throughput,
            description="throughput-maximising placement baseline",
        ),
        AlgorithmEntry(
            "RandomConnected", random_connected,
            description="random connected placement (control)",
        ),
        AlgorithmEntry(
            "Unconstrained", unconstrained_greedy,
            description="coverage greedy ignoring connectivity "
            "(reference point; violates constraint (iii))",
            requires_connected=False,
        ),
    ))


#: The shared registry every entry point dispatches through.
DEFAULT_REGISTRY = default_registry()
