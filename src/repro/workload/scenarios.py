"""Ready-made experimental scenarios.

``paper_scenario`` reproduces Section IV-A: a 3 x 3 km disaster zone,
fat-tailed users, heterogeneous capacities in [50, 300], ``H_uav = 300 m``,
``R_uav = 600 m``, ``R_user = 500 m``.

The one knob the paper leaves unstated in its evaluation is the grid side
``lambda`` (Section II-A uses 50 m as an *example*, which yields m = 3600
candidate locations — far beyond what the O(m^{s+1}) algorithm can scan in
pure Python).  ``grid_side_m`` therefore defaults per scale preset:
``paper`` = 300 m (m = 100), ``bench`` = 500 m (m = 36), ``small`` = a
1.5 x 1.5 km zone with 500 m cells (m = 9).  See DESIGN.md "Substitutions".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.atg import AirToGroundChannel
from repro.channel.presets import get_environment
from repro.core.problem import ProblemInstance
from repro.geometry.area import DisasterArea
from repro.network.coverage import CoverageGraph
from repro.network.fleet import heterogeneous_fleet
from repro.util.rng import ensure_rng
from repro.workload.fat_tailed import FatTailedWorkload


@dataclass(frozen=True)
class ScenarioConfig:
    """All knobs of one experimental scenario."""

    area_length_m: float = 3000.0
    area_width_m: float = 3000.0
    grid_side_m: float = 500.0
    altitude_m: float = 300.0
    #: Optional multi-layer candidate space (extension): when non-empty,
    #: candidate hovering locations are the grid centres at *each* listed
    #: altitude instead of the single ``altitude_m`` plane.  The paper
    #: fixes one optimal altitude; extra layers trade UAV-to-user link
    #: quality for denser UAV-to-UAV connectivity options.
    altitude_layers_m: tuple = ()
    uav_range_m: float = 600.0
    user_range_m: float = 500.0
    num_users: int = 3000
    num_uavs: int = 20
    capacity_min: int = 50
    capacity_max: int = 300
    environment: str = "urban"
    workload: FatTailedWorkload = field(default_factory=FatTailedWorkload)

    def with_overrides(self, **kwargs: object) -> "ScenarioConfig":
        return replace(self, **kwargs)

    @property
    def num_locations(self) -> int:
        """Candidate hovering locations: grid cells per altitude layer
        times the layers."""
        per_layer = (round(self.area_length_m / self.grid_side_m)
                     * round(self.area_width_m / self.grid_side_m))
        return per_layer * (len(self.altitude_layers_m) or 1)


SCALES = {
    # paper: full 3x3 km zone, fine-ish grid (m = 100 candidates).
    "paper": ScenarioConfig(grid_side_m=300.0),
    # bench: full zone, coarse grid (m = 36) - the default for benchmarks.
    "bench": ScenarioConfig(grid_side_m=500.0),
    # small: quarter-size zone for tests and examples (m = 9).
    "small": ScenarioConfig(
        area_length_m=1500.0,
        area_width_m=1500.0,
        grid_side_m=500.0,
        num_users=300,
        num_uavs=6,
    ),
}


def build_scenario(
    config: ScenarioConfig, seed: "int | np.random.Generator | None" = None
) -> ProblemInstance:
    """Instantiate a :class:`ProblemInstance` from a config and a seed.

    The seed drives both the user placement and the fleet capacities, so a
    (config, seed) pair identifies a scenario exactly.
    """
    rng = ensure_rng(seed)
    area = DisasterArea(config.area_length_m, config.area_width_m)
    altitudes = config.altitude_layers_m or (config.altitude_m,)
    locations: list = []
    for altitude in altitudes:
        grid = area.hovering_grid(config.grid_side_m, altitude)
        locations.extend(grid.centers)
    users = config.workload.generate(area, config.num_users, rng)
    fleet = heterogeneous_fleet(
        config.num_uavs,
        capacity_min=config.capacity_min,
        capacity_max=config.capacity_max,
        user_range_m=config.user_range_m,
        seed=rng,
    )
    graph = CoverageGraph(
        users=users,
        locations=locations,
        uav_range_m=config.uav_range_m,
        channel=AirToGroundChannel(get_environment(config.environment)),
    )
    return ProblemInstance(graph=graph, fleet=fleet)


def paper_scenario(
    num_users: int = 3000,
    num_uavs: int = 20,
    scale: str = "bench",
    seed: "int | np.random.Generator | None" = 0,
    **overrides: object,
) -> ProblemInstance:
    """The Section IV-A scenario at a given scale preset."""
    if scale not in SCALES:
        known = ", ".join(sorted(SCALES))
        raise KeyError(f"unknown scale {scale!r}; known: {known}")
    config = SCALES[scale].with_overrides(
        num_users=num_users, num_uavs=num_uavs, **overrides
    )
    return build_scenario(config, seed)
