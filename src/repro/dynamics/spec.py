"""Declarative long-horizon mission descriptions: :class:`DynamicSpec`.

A :class:`DynamicSpec` extends :class:`~repro.scenario.spec.ScenarioSpec`
with the time dimension: mission duration, epoch cadence, the re-solve
policy, churn (streaming arrivals/departures around drifting hotspots),
user mobility, relocation transit and fault injection.  The static half —
scale, fleet, channel, algorithm, seed — is inherited unchanged, so a
dynamic spec builds the exact same initial scenario a static spec with
the same knobs would, and all auxiliary event streams derive from the one
root seed via :meth:`~repro.scenario.spec.ScenarioSpec.derived_seed`
(``"churn"``, ``"mobility"``, ``"faults"``), never perturbing the
scenario draw.

JSON round-trip mirrors the parent but under its own document kind
(``dynamic-spec``), so ``repro dynamic`` can load either a preset name or
a spec file, and a dynamic spec file can never be mistaken for a static
one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenario.spec import ScenarioSpec, _require
from repro.workload.scenarios import SCALES

DYNAMIC_SPEC_FORMAT = 1
DYNAMIC_SPEC_KIND = "dynamic-spec"

#: Re-solve policies the engine knows (see :mod:`repro.dynamics.policy`).
RESOLVE_POLICIES = ("periodic", "drift", "event")


def _check_positive(value: object, name: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value > 0,
        f"{name} must be a positive number, got {value!r}",
    )


def _check_non_negative(value: object, name: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and value >= 0,
        f"{name} must be a number >= 0, got {value!r}",
    )


@dataclass(frozen=True)
class DynamicSpec(ScenarioSpec):
    """One declarative long-horizon mission.

    Rates default to a gentle churn profile; zeroing a knob disables its
    event source entirely (no events scheduled), so a ``DynamicSpec`` with
    everything zeroed degenerates to the static scenario it inherits.

    JSON round-trip is the parent's under this document kind.
    """

    _KIND = DYNAMIC_SPEC_KIND
    _FORMAT = DYNAMIC_SPEC_FORMAT

    # -- horizon / epochs ----------------------------------------------------
    duration_s: float = 600.0
    epoch_s: float = 120.0
    #: "periodic" re-solves every epoch; "drift" re-solves at an epoch tick
    #: (or fault) only once coverage decayed by ``drift_threshold``;
    #: "event" re-solves only on structural events (faults, restores).
    resolve_policy: str = "periodic"
    drift_threshold: float = 0.15
    # -- churn (seeded via derived_seed("churn")) ----------------------------
    arrival_rate_per_s: float = 0.02
    mean_dwell_s: float = 300.0
    num_hotspots: int = 3
    hotspot_sigma_m: float = 150.0
    # -- mobility (seeded via derived_seed("mobility")) ----------------------
    hotspot_drift_mps: float = 2.0
    mobility_sigma_m: float = 0.0
    mobility_step_s: float = 30.0
    # -- faults / relocation -------------------------------------------------
    num_crashes: int = 0
    num_links: int = 0
    #: Fleet cruise speed for relocation transit; ``None`` adopts new
    #: placements instantaneously (the paper's snapshot idealisation).
    relocation_speed_mps: "float | None" = None
    # -- engine --------------------------------------------------------------
    #: Warm-start epoch re-solves from the previous epoch's context
    #: (result-identical to cold; see the oracle suite).
    warm_start: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive(self.duration_s, "duration_s")
        _check_positive(self.epoch_s, "epoch_s")
        _require(
            self.resolve_policy in RESOLVE_POLICIES,
            f"resolve_policy must be one of {', '.join(RESOLVE_POLICIES)}, "
            f"got {self.resolve_policy!r}",
        )
        _require(
            isinstance(self.drift_threshold, (int, float))
            and not isinstance(self.drift_threshold, bool)
            and 0 < self.drift_threshold <= 1,
            f"drift_threshold must be in (0, 1], got {self.drift_threshold!r}",
        )
        _check_non_negative(self.arrival_rate_per_s, "arrival_rate_per_s")
        _check_positive(self.mean_dwell_s, "mean_dwell_s")
        _require(
            isinstance(self.num_hotspots, int)
            and not isinstance(self.num_hotspots, bool)
            and self.num_hotspots >= 1,
            f"num_hotspots must be an integer >= 1, got {self.num_hotspots!r}",
        )
        _check_positive(self.hotspot_sigma_m, "hotspot_sigma_m")
        _check_non_negative(self.hotspot_drift_mps, "hotspot_drift_mps")
        _check_non_negative(self.mobility_sigma_m, "mobility_sigma_m")
        _check_positive(self.mobility_step_s, "mobility_step_s")
        for name in ("num_crashes", "num_links"):
            value = getattr(self, name)
            _require(
                isinstance(value, int) and not isinstance(value, bool)
                and value >= 0,
                f"{name} must be an integer >= 0, got {value!r}",
            )
        fleet_size = (
            SCALES[self.scale].num_uavs if self.num_uavs is None
            else self.num_uavs
        )
        _require(
            self.num_crashes <= fleet_size,
            f"num_crashes {self.num_crashes} exceeds the fleet of "
            f"{fleet_size} UAVs (each UAV crashes at most once)",
        )
        if self.relocation_speed_mps is not None:
            _check_positive(self.relocation_speed_mps, "relocation_speed_mps")
        _require(
            isinstance(self.warm_start, bool),
            f"warm_start must be a boolean, got {self.warm_start!r}",
        )
        # The mission world adds, removes and moves individual users on
        # one problem: the untiled one, or one tile's (``tile_index``).
        _require(
            self.aggregation == "users",
            f"aggregation must be 'users' for a mission, got "
            f"{self.aggregation!r}: the mission's users arrive, depart and "
            "move one by one",
        )
        _require(
            self.tiles is None or self.tile_index is not None,
            f"tiles {self.tiles!r} given without a tile_index: a mission "
            "runs on the untiled problem or on one tile's",
        )


#: Named ready-to-run dynamic missions.
DYNAMIC_PRESETS = {
    # A two-minute, small-scale mission for tests and demos: light churn,
    # periodic epochs, no faults.
    "dynamic-small": DynamicSpec(
        name="dynamic-small", scale="small", num_users=150, num_uavs=6,
        seed=42, algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
        duration_s=300.0, epoch_s=75.0, arrival_rate_per_s=0.05,
        mean_dwell_s=240.0, mobility_sigma_m=25.0,
    ),
    # Surge relief: heavy arrivals around drifting hotspots plus crashes,
    # with drift-triggered re-solves.
    "dynamic-surge": DynamicSpec(
        name="dynamic-surge", scale="small", num_users=200, num_uavs=8,
        seed=7, algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
        duration_s=600.0, epoch_s=60.0, resolve_policy="drift",
        drift_threshold=0.1, arrival_rate_per_s=0.25, mean_dwell_s=180.0,
        hotspot_drift_mps=4.0, mobility_sigma_m=30.0, num_crashes=2,
        relocation_speed_mps=10.0,
    ),
    # A fault-injected mission with no churn and no mobility: two UAV
    # crashes (``num_links`` adds link faults), each answered by a repair
    # re-solve.  ``repro mission`` runs it by default.
    "mission-small": DynamicSpec(
        name="mission-small", scale="small", num_users=400, num_uavs=6,
        seed=7, algorithm="approAlg",
        algorithm_params={"s": 2, "gain_mode": "fast",
                          "max_anchor_candidates": 10},
        duration_s=120.0, resolve_policy="event", arrival_rate_per_s=0.0,
        hotspot_drift_mps=0.0, mobility_sigma_m=0.0, num_crashes=2,
    ),
    # The benchmark mission: paper-scale candidate grid (where the hop
    # rebuild dominates a cold re-solve) with three altitude layers,
    # periodic epochs and moderate churn — the warm-vs-cold latency gate
    # runs here.
    "dynamic-headline": DynamicSpec(
        name="dynamic-headline", scale="paper", num_users=800, num_uavs=10,
        seed=7, algorithm="approAlg",
        altitude_layers_m=(200.0, 300.0, 400.0),
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
        duration_s=600.0, epoch_s=100.0, arrival_rate_per_s=0.2,
        mean_dwell_s=400.0, mobility_sigma_m=40.0,
    ),
}


def dynamic_preset_names() -> list:
    return sorted(DYNAMIC_PRESETS)


def get_dynamic_preset(name: str) -> DynamicSpec:
    """Look up a named dynamic preset (KeyError lists the known names)."""
    try:
        return DYNAMIC_PRESETS[name]
    except KeyError:
        known = ", ".join(dynamic_preset_names())
        raise KeyError(f"unknown dynamic preset {name!r}; known: {known}") \
            from None
