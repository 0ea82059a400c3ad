"""Declarative scenario descriptions: :class:`ScenarioSpec`.

A spec is the single, serialisable description of one solve: *which*
scenario (scale preset + overrides, channel environment, workload model,
fleet mix, seed) and *how* to solve it (algorithm, algorithm parameters,
engine options).  Every entry point — ``repro run``, the figure sweeps,
the dynamics engine, the batch runner — reduces to building a spec and
handing it to :class:`repro.scenario.pipeline.SolvePipeline`, so adding a
scenario knob means touching this file, not five call sites.

The spec composes the lower-level preset tables instead of duplicating
them: ``scale`` keys into :data:`repro.workload.scenarios.SCALES`,
``environment`` into :data:`repro.channel.presets.ENVIRONMENTS` and
``workload`` into :data:`WORKLOADS`.  :data:`PRESETS` holds the named,
ready-to-run specs that previously lived as scattered constants in the
CLI and the sweep drivers.

Seed discipline (see :mod:`repro.util.rng`): the spec ``seed`` drives the
scenario draw directly — ``ScenarioSpec(seed=7).build()`` is bit-identical
to the historical ``paper_scenario(..., seed=7)`` — and named auxiliary
streams derive via :meth:`ScenarioSpec.derived_seed`.

JSON round-trip::

    spec = ScenarioSpec(scale="small", num_users=300, seed=42)
    ScenarioSpec.from_json(spec.to_json()) == spec   # always True

``from_dict`` rejects unknown fields and invalid values with a named
error, so a typo in a spec file fails loudly instead of silently running
the default scenario.  The exceptions are the removed fields of
:data:`_REMOVED_FIELDS`: saved documents carry them at their inert value
(``"bound_prune": false``, say), which still loads (the key is dropped).
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from repro.channel.presets import ENVIRONMENTS
from repro.core.problem import ProblemInstance
from repro.geometry.area import AIRSPACE_CEILING_M, grid_divides
from repro.util.rng import derive_seed
from repro.workload.fat_tailed import FatTailedWorkload
from repro.workload.scenarios import SCALES, ScenarioConfig, build_scenario
from repro.workload.uniform import UniformWorkload

SPEC_FORMAT = 1
SPEC_KIND = "scenario-spec"

#: Workload models a spec may name (the declarative counterpart of the
#: workload classes themselves).
WORKLOADS = {
    "fat-tailed": FatTailedWorkload,
    "uniform": UniformWorkload,
}


class SpecError(ValueError):
    """A scenario spec failed validation (bad field, unknown key, ...)."""


#: Most candidate locations a spec may ask for (grid cells per altitude
#: layer times the layers).  The build and the solver's hop matrix grow
#: with the square of the count: 2,500 locations (a 60 m grid over the
#: 3 x 3 km ``bench`` zone) take 0.5-0.6 s to build and 1.6 s with the
#: solver context (169 MB peak RSS, 2-core VM), while 3,600 take 0.9-1.2 s
#: and 4.5 s.  The largest preset asks for 300.
MAX_LOCATIONS = 2500

#: Removed fields that saved format-1 documents still carry, each with
#: the one value that loads: the value under which the field did nothing.
_REMOVED_FIELDS = {"bound_prune": False, "recharge_s": None}

#: ``tiles`` grid syntax: columns x rows, both positive ("2x3").
_TILES_RE = re.compile(r"([0-9]+)x([0-9]+)")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


def _check_optional_int(value: object, name: str, minimum: int = 1) -> None:
    if value is None:
        return
    _require(
        isinstance(value, int) and not isinstance(value, bool)
        and value >= minimum,
        f"{name} must be an integer >= {minimum}, got {value!r}",
    )


def _check_optional_number(value: object, name: str) -> None:
    if value is None:
        return
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value > 0,
        f"{name} must be a positive number, got {value!r}",
    )


def _check_optional_altitude(value: object, name: str) -> None:
    """A hovering altitude inside the scenario airspace
    ``(0, AIRSPACE_CEILING_M]``."""
    _check_optional_number(value, name)
    _require(
        value is None or value <= AIRSPACE_CEILING_M,
        f"{name} {value!r} is above the {AIRSPACE_CEILING_M:g} m airspace "
        "ceiling",
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario + solve description.

    Scenario fields default to ``None`` meaning "whatever the ``scale``
    preset says"; only explicit overrides are stored, so a spec file reads
    as its diff against the preset.
    """

    #: JSON document header; subclasses with their own document kind
    #: (:class:`repro.dynamics.spec.DynamicSpec`) override both.
    _KIND = SPEC_KIND
    _FORMAT = SPEC_FORMAT

    # -- identity ------------------------------------------------------------
    name: str = "custom"
    # -- scenario: area / scale ----------------------------------------------
    scale: str = "bench"
    num_users: "int | None" = None
    num_uavs: "int | None" = None
    grid_side_m: "float | None" = None
    altitude_m: "float | None" = None
    altitude_layers_m: tuple = ()
    # -- scenario: channel / workload / fleet mix ----------------------------
    environment: "str | None" = None
    workload: "str | None" = None
    workload_params: dict = field(default_factory=dict)
    capacity_min: "int | None" = None
    capacity_max: "int | None" = None
    # -- seeds ---------------------------------------------------------------
    seed: int = 0
    # -- algorithm + engine options ------------------------------------------
    algorithm: str = "approAlg"
    algorithm_params: dict = field(default_factory=dict)
    workers: int = 1
    validate: bool = True
    # -- scale-out: demand aggregation + area tiling --------------------------
    #: "users" solves over individual users (the historical path);
    #: "cells" aggregates users into spatial demand cells first (see
    #: :mod:`repro.workload.aggregate`).
    aggregation: str = "users"
    #: Cell edge length for ``aggregation="cells"``; ``None`` means
    #: singleton cells (one per user — bit-identical to the user path).
    cell_size_m: "float | None" = None
    #: Shard the area into a ``"NxM"`` grid of tiles solved independently
    #: and stitched (see :mod:`repro.scenario.tiling`); ``None`` = no tiling.
    tiles: "str | None" = None
    #: How far each tile's candidate locations reach past its core bounds.
    tile_overlap_m: float = 0.0
    #: Internal: when set, :meth:`build` yields that single carved tile's
    #: sub-problem instead of the full scenario; the tiled driver names its
    #: per-tile specs with it.
    tile_index: "int | None" = None

    # -- schema validation ---------------------------------------------------

    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and self.name,
            f"name must be a non-empty string, got {self.name!r}",
        )
        _require(
            self.scale in SCALES,
            f"unknown scale {self.scale!r}; known: {', '.join(sorted(SCALES))}",
        )
        _check_optional_int(self.num_users, "num_users")
        _check_optional_int(self.num_uavs, "num_uavs")
        _check_optional_number(self.grid_side_m, "grid_side_m")
        _check_optional_altitude(self.altitude_m, "altitude_m")
        _require(
            isinstance(self.altitude_layers_m, (tuple, list)),
            "altitude_layers_m must be a sequence of altitudes, got "
            f"{self.altitude_layers_m!r}",
        )
        object.__setattr__(
            self, "altitude_layers_m", tuple(self.altitude_layers_m)
        )
        for altitude in self.altitude_layers_m:
            _check_optional_altitude(altitude, "altitude_layers_m entry")
        if self.environment is not None:
            _require(
                self.environment in ENVIRONMENTS,
                f"unknown environment {self.environment!r}; known: "
                f"{', '.join(sorted(ENVIRONMENTS))}",
            )
        _require(
            isinstance(self.workload_params, dict),
            f"workload_params must be a dict, got {self.workload_params!r}",
        )
        _require(
            not self.workload_params or self.workload is not None,
            "workload_params given without a workload model name",
        )
        object.__setattr__(self, "_workload_model", self._workload())
        _check_optional_int(self.capacity_min, "capacity_min")
        _check_optional_int(self.capacity_max, "capacity_max")
        if self.capacity_min is not None and self.capacity_max is not None:
            _require(
                self.capacity_min <= self.capacity_max,
                f"capacity_min {self.capacity_min} exceeds capacity_max "
                f"{self.capacity_max}",
            )
        _require(
            isinstance(self.seed, int) and not isinstance(self.seed, bool)
            and self.seed >= 0,
            f"seed must be a non-negative integer, got {self.seed!r}",
        )
        _require(
            isinstance(self.algorithm, str) and self.algorithm,
            f"algorithm must be a non-empty string, got {self.algorithm!r}",
        )
        _require(
            isinstance(self.algorithm_params, dict),
            f"algorithm_params must be a dict, got {self.algorithm_params!r}",
        )
        _require(
            isinstance(self.workers, int) and not isinstance(self.workers, bool)
            and self.workers >= 1,
            f"workers must be an integer >= 1, got {self.workers!r}",
        )
        _require(
            isinstance(self.validate, bool),
            f"validate must be a boolean, got {self.validate!r}",
        )
        _require(
            self.aggregation in ("users", "cells"),
            f"aggregation must be 'users' or 'cells', got {self.aggregation!r}",
        )
        _check_optional_number(self.cell_size_m, "cell_size_m")
        _require(
            self.cell_size_m is None or self.aggregation == "cells",
            "cell_size_m given without aggregation='cells'",
        )
        if self.tiles is not None:
            _require(
                isinstance(self.tiles, str)
                and _TILES_RE.fullmatch(self.tiles) is not None,
                f"tiles must look like '2x3' (columns x rows), got "
                f"{self.tiles!r}",
            )
            nx, ny = self.tile_grid()
            _require(
                nx >= 1 and ny >= 1,
                f"tiles grid must be at least 1x1, got {self.tiles!r}",
            )
        _require(
            isinstance(self.tile_overlap_m, (int, float))
            and not isinstance(self.tile_overlap_m, bool)
            and self.tile_overlap_m >= 0,
            f"tile_overlap_m must be a number >= 0, got "
            f"{self.tile_overlap_m!r}",
        )
        _require(
            self.tile_overlap_m == 0 or self.tiles is not None,
            "tile_overlap_m given without a tiles grid",
        )
        self._check_tile_overlap()
        if self.tile_index is not None:
            _require(
                self.tiles is not None,
                "tile_index given without a tiles grid",
            )
            nx, ny = self.tile_grid()
            _require(
                isinstance(self.tile_index, int)
                and not isinstance(self.tile_index, bool)
                and 0 <= self.tile_index < nx * ny,
                f"tile_index must be an integer in [0, {nx * ny}), got "
                f"{self.tile_index!r}",
            )

    def _workload(self) -> object:
        """The workload model the spec names, built from its
        ``workload_params`` (``None`` when the scale's default is kept);
        parameters the model rejects raise :class:`SpecError`."""
        if self.workload is None:
            return None
        _require(
            self.workload in WORKLOADS,
            f"unknown workload {self.workload!r}; known: "
            f"{', '.join(sorted(WORKLOADS))}",
        )
        try:
            return WORKLOADS[self.workload](**self.workload_params)
        except (TypeError, ValueError) as exc:
            raise SpecError(
                f"workload_params {self.workload_params!r} rejected by "
                f"workload {self.workload!r}: {exc}"
            ) from None

    def _check_tile_overlap(self) -> None:
        """A tile overlap may not be wider than a tile of the scale's area."""
        if self.tiles is None:
            return
        base = SCALES[self.scale]
        nx, ny = self.tile_grid()
        tile_m = min(base.area_length_m / nx, base.area_width_m / ny)
        _require(
            self.tile_overlap_m <= tile_m,
            f"tile_overlap_m {self.tile_overlap_m:g} is wider than a "
            f"{tile_m:g} m tile of grid {self.tiles}",
        )

    # -- derived views -------------------------------------------------------

    def with_overrides(self, **kwargs: object) -> "ScenarioSpec":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **kwargs)

    def to_config(self) -> ScenarioConfig:
        """Resolve the spec against its scale preset into a
        :class:`~repro.workload.scenarios.ScenarioConfig`."""
        overrides: dict = {}
        for key in (
            "num_users", "num_uavs", "grid_side_m", "altitude_m",
            "capacity_min", "capacity_max", "environment",
        ):
            value = getattr(self, key)
            if value is not None:
                overrides[key] = value
        if self.altitude_layers_m:
            overrides["altitude_layers_m"] = self.altitude_layers_m
        if self._workload_model is not None:
            overrides["workload"] = self._workload_model
        return SCALES[self.scale].with_overrides(**overrides)

    def tile_grid(self) -> "tuple | None":
        """The parsed ``tiles`` grid as ``(nx, ny)``, or ``None``."""
        if self.tiles is None:
            return None
        nx, ny = (int(part) for part in self.tiles.split("x"))
        return nx, ny

    def build(self) -> ProblemInstance:
        """Instantiate the scenario (bit-identical to the historical
        ``paper_scenario(..., seed=spec.seed)`` path for the same knobs).

        Aggregation and tile carving are part of the build: a spec with
        ``aggregation="cells"`` yields a demand-cell problem, and one with
        ``tile_index`` set yields that carved tile's sub-problem (the same
        carve :func:`repro.scenario.tiling.solve_tiled` makes, which
        builds the global problem once and carves every tile from it
        instead of calling this per tile).
        """
        config = self.to_config()
        _require(
            grid_divides(config.area_length_m, config.area_width_m,
                         config.grid_side_m),
            f"grid_side_m {config.grid_side_m:g} does not divide the "
            f"{config.area_length_m:g} x {config.area_width_m:g} m area "
            f"of scale {self.scale!r}",
        )
        _require(
            config.num_locations <= MAX_LOCATIONS,
            f"grid_side_m {config.grid_side_m:g} over "
            f"{len(config.altitude_layers_m) or 1} altitude layer(s) "
            f"(altitude_layers_m) asks for {config.num_locations} candidate "
            f"locations; at most {MAX_LOCATIONS} are allowed",
        )
        _require(
            config.num_uavs <= config.num_locations,
            f"cannot deploy {config.num_uavs} UAVs on only "
            f"{config.num_locations} candidate locations (at most one UAV "
            "per grid)",
        )
        problem = build_scenario(config, self.seed)
        if self.aggregation == "cells":
            from repro.workload.aggregate import aggregate_problem

            problem = aggregate_problem(problem, self.cell_size_m)
        if self.tile_index is not None:
            from repro.scenario.tiling import carve_tiles

            tile = carve_tiles(
                problem, self.tile_grid(), self.tile_overlap_m
            )[self.tile_index]
            if tile.problem is None:
                raise SpecError(
                    f"tile {self.tile_index} of grid {self.tiles} is empty "
                    "(no users, candidate locations, or apportioned UAVs)"
                )
            problem = tile.problem
        return problem

    def derived_seed(self, *labels: str) -> "int | None":
        """A named auxiliary seed (see :func:`repro.util.rng.derive_seed`)."""
        return derive_seed(self.seed, *labels)

    def scenario_key(self) -> tuple:
        """Hashable identity of the *scenario* part of the spec.

        Two specs with equal keys build bit-identical problems, so the
        batch runner may share one built problem (and solver context)
        between them even when algorithm/engine options differ.
        """
        return (
            self.scale, self.num_users, self.num_uavs, self.grid_side_m,
            self.altitude_m, self.altitude_layers_m, self.environment,
            self.workload,
            json.dumps(self.workload_params, sort_keys=True, default=repr),
            self.capacity_min, self.capacity_max, self.seed,
            self.aggregation, self.cell_size_m,
            self.tiles, self.tile_overlap_m, self.tile_index,
        )

    # -- JSON round-trip -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready flat representation (format/kind header + fields)."""
        body = asdict(self)
        body["altitude_layers_m"] = list(self.altitude_layers_m)
        return {"format": self._FORMAT, "kind": self._KIND, **body}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; rejects unknown/invalid fields.

        A removed field of :data:`_REMOVED_FIELDS` at its inert value
        (from a saved format-1 document) is dropped; any other value is
        an error, since the option is gone.
        """
        _require(isinstance(data, dict), f"spec must be an object, got {data!r}")
        kind = data.get("kind", cls._KIND)
        _require(
            kind == cls._KIND,
            f"expected a {cls._KIND} document, got kind = {kind!r}",
        )
        version = data.get("format", cls._FORMAT)
        _require(
            version == cls._FORMAT,
            f"unsupported {cls._KIND} format {version!r} (this build reads "
            f"{cls._FORMAT})",
        )
        known = {f.name for f in fields(cls)}
        body = {k: v for k, v in data.items() if k not in ("format", "kind")}
        for key, inert in _REMOVED_FIELDS.items():
            if key in body:
                removed = body.pop(key)
                _require(
                    removed is inert,
                    f"{key} = {removed!r}: the option was removed; delete "
                    f"the key (only {json.dumps(inert)} still loads)",
                )
        unknown = sorted(set(body) - known)
        _require(
            not unknown,
            f"unknown spec field(s): {', '.join(unknown)}; known: "
            f"{', '.join(sorted(known))}",
        )
        return cls(**body)

    def to_json(self, indent: "int | None" = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from None
        return cls.from_dict(data)

    def save(self, path: "str | Path") -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "ScenarioSpec":
        return cls.from_json(Path(path).read_text())


#: Named ready-to-run specs — the scenario-first successors of the knobs
#: the CLI subcommands and examples used to hand-build (``repro scenario
#: show <name>`` dumps any of them as JSON to start a custom spec from).
PRESETS = {
    "demo-small": ScenarioSpec(
        name="demo-small", scale="small", num_users=300, num_uavs=6,
        seed=42, algorithm="approAlg", algorithm_params={"s": 2},
    ),
    "bench-default": ScenarioSpec(
        name="bench-default", scale="bench", num_users=600, num_uavs=8,
        seed=0, algorithm="approAlg",
        algorithm_params={"s": 2, "gain_mode": "fast",
                          "max_anchor_candidates": 10},
    ),
    "paper-fig4": ScenarioSpec(
        name="paper-fig4", scale="bench", num_users=3000, num_uavs=20,
        seed=7, algorithm="approAlg",
        algorithm_params={"s": 3, "gain_mode": "fast",
                          "max_anchor_candidates": 10},
    ),
    "paper-headline": ScenarioSpec(
        name="paper-headline", scale="paper", num_users=3000, num_uavs=20,
        seed=7, algorithm="approAlg",
        algorithm_params={"s": 3, "gain_mode": "fast",
                          "max_anchor_candidates": 10},
    ),
    # Million-user scale-out: demand-cell aggregation + 2x2 tiled solves
    # stitched back into one connected deployment (docs/SCALE.md).
    "mega-1m": ScenarioSpec(
        name="mega-1m", scale="bench", num_users=1_000_000, num_uavs=20,
        seed=7, aggregation="cells", cell_size_m=150.0,
        tiles="2x2", tile_overlap_m=300.0, algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
    ),
    # CI-sized sibling of mega-1m (10^5 users) for the scale-smoke job.
    "scale-smoke": ScenarioSpec(
        name="scale-smoke", scale="bench", num_users=100_000, num_uavs=12,
        seed=7, aggregation="cells", cell_size_m=150.0,
        tiles="2x2", tile_overlap_m=300.0, algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 4},
    ),
}


def preset_names() -> list:
    return sorted(PRESETS)


def get_preset(name: str) -> ScenarioSpec:
    """Look up a named preset spec (KeyError lists the known names)."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(preset_names())
        raise KeyError(f"unknown preset {name!r}; known: {known}") from None
