"""The declarative scenario layer: describe a run, then execute it.

* :class:`ScenarioSpec` — a frozen, JSON-round-trippable description of
  one run (scenario + algorithm + engine options), with named presets;
* :class:`AlgorithmRegistry` / :data:`DEFAULT_REGISTRY` — solver entries
  with capability flags, the single dispatch table;
* :class:`SolvePipeline` — the staged build → context → solve → validate
  → report flow every entry point routes through;
* :class:`BatchRunner` — many specs, shared scenario builds and solver
  contexts, optional process pool.

This package sits *below* :mod:`repro.sim`: the sweep drivers, the CLI
and the dynamics engine are thin adapters over it (see
``docs/ARCHITECTURE.md``).
"""

from repro.scenario.batch import BatchItem, BatchResult, BatchRunner, run_specs
from repro.scenario.pipeline import PipelineState, SolvePipeline
from repro.scenario.registry import (
    DEFAULT_REGISTRY,
    AlgorithmEntry,
    AlgorithmRegistry,
    default_registry,
)
from repro.scenario.spec import (
    PRESETS,
    ScenarioSpec,
    SpecError,
    get_preset,
    preset_names,
)
from repro.scenario.tiling import TileSlice, carve_tiles, solve_tiled

__all__ = [
    "AlgorithmEntry",
    "AlgorithmRegistry",
    "BatchItem",
    "BatchResult",
    "BatchRunner",
    "DEFAULT_REGISTRY",
    "PRESETS",
    "PipelineState",
    "ScenarioSpec",
    "SolvePipeline",
    "SpecError",
    "TileSlice",
    "carve_tiles",
    "default_registry",
    "get_preset",
    "preset_names",
    "run_specs",
    "solve_tiled",
]
