"""The algorithm registry: names -> solver entries with capability flags.

This is the single source of truth for "what can this repo solve with,
and what does each solver support".  :data:`DEFAULT_REGISTRY` subsumes the
ad-hoc dispatch tables that used to live in :mod:`repro.sim.runner`
(``ALGORITHMS`` plus the ``_UNCONNECTED_OK`` / ``_COOPERATIVE`` side
sets): the runner now *derives* those views from here, and the solve
pipeline (:mod:`repro.scenario.pipeline`) consults the capability flags to
decide which engine options (``workers``, a prebuilt
:class:`~repro.core.context.SolverContext`, a watchdog ``progress`` hook)
an algorithm may legally receive.

Registering a new solver is one :meth:`AlgorithmRegistry.register` call;
every entry point (CLI, sweeps, batch runner, watchdog chains) picks it up
from there.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class AlgorithmEntry:
    """One registered solver and its capabilities.

    ``solve`` maps ``(problem, **params) -> Deployment``.  The flags gate
    engine options: the pipeline only forwards ``workers=N`` when
    ``supports_workers`` is set, and the solver watchdog only installs a
    mid-run abort hook when ``cooperative`` is set (the solver calls
    ``progress(done, total)`` between units of work).  ``watchdog_tier``
    orders the default fallback chain (lower answers first; ``None`` keeps
    the solver out of the chain).
    """

    name: str
    solve: "object"            # callable(problem, **params) -> Deployment
    description: str = ""
    supports_workers: bool = False
    supports_context: bool = False
    supports_checkpoint: bool = False
    cooperative: bool = False
    requires_connected: bool = True
    watchdog_tier: "int | None" = None
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

    def callables(self) -> dict:
        """A fresh ``name -> solve`` dict (the legacy ``ALGORITHMS`` shape;
        :mod:`repro.sim.runner` builds its mutable table from this)."""
        return {name: e.solve for name, e in self._entries.items()}

    def unconnected_ok(self) -> frozenset:
        return frozenset(
            name for name, e in self._entries.items()
            if not e.requires_connected
        )

    def cooperative(self) -> frozenset:
        return frozenset(
            name for name, e in self._entries.items() if e.cooperative
        )

    def fallback_chain(self) -> tuple:
        """Watchdog fallback order: entries with a tier, best first."""
        tiered = [e for e in self._entries.values()
                  if e.watchdog_tier is not None]
        tiered.sort(key=lambda e: e.watchdog_tier)
        return tuple(e.name for e in tiered)

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
            supports_checkpoint=True, cooperative=True, watchdog_tier=0,
            supports_cells=True, supports_warm_start=True,
        ),
        AlgorithmEntry(
            "MCS", mcs,
            description="maximum connected-component seeding baseline",
            watchdog_tier=1,
        ),
        AlgorithmEntry(
            "MotionCtrl", motion_ctrl,
            description="local-search motion-control baseline",
        ),
        AlgorithmEntry(
            "GreedyAssign", greedy_assign,
            description="capacity-greedy assignment baseline",
            watchdog_tier=2,
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
