"""Independent feasibility validation of deployments (Section II-C's
constraints (i)-(iii)).

Every algorithm's output in this library — the proposed approximation and
all baselines — is run through :func:`validate_deployment` in tests; it
re-derives feasibility from first principles (distances, rates, capacities,
connectivity) without trusting any cached structure the algorithms used.
"""

from __future__ import annotations

import math

import numpy as np

from repro.network.coverage import CoverageGraph
from repro.network.deployment import CellDeployment, Deployment


class ValidationError(AssertionError):
    """A deployment violates one of the problem's constraints."""


def validate_deployment(
    graph: CoverageGraph,
    fleet: list,
    deployment: Deployment,
    require_connected: bool = True,
) -> None:
    """Raise :class:`ValidationError` on any constraint violation.

    Checks, in order: UAV and location indices are valid; at most one UAV
    per location (enforced structurally by :class:`Deployment`); per-UAV
    loads within capacity; every served user is within its UAV's coverage
    radius with an adequate rate; and (optionally) the deployed locations
    induce a connected UAV-to-UAV graph.
    """
    for k, loc in deployment.placements.items():
        if not (0 <= k < len(fleet)):
            raise ValidationError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise ValidationError(
                f"location index {loc} outside [0, {graph.num_locations})"
            )

    # Deployment.__post_init__ rejects assignments to undeployed UAVs, but
    # placements/assignment are plain (mutable) dicts; a corrupted
    # deployment must fail validation, not raise a bare KeyError below
    # (loads() and the per-user checks both index placements/fleet).
    for user, k in deployment.assignment.items():
        if k not in deployment.placements:
            raise ValidationError(
                f"user {user} is assigned to UAV {k}, which has no "
                "placement in this deployment"
            )
        if not (0 <= k < len(fleet)):
            raise ValidationError(
                f"user {user} is assigned to UAV {k} outside fleet of "
                f"{len(fleet)}"
            )

    loads = deployment.loads()
    for k, load in loads.items():
        capacity = fleet[k].capacity
        if load > capacity:
            raise ValidationError(
                f"UAV {k} serves {load} users, exceeding capacity {capacity}"
            )

    users = graph.users
    for user, k in deployment.assignment.items():
        if not (0 <= user < len(users)):
            raise ValidationError(
                f"user index {user} outside [0, {len(users)})"
            )
        uav = fleet[k]
        loc_index = deployment.placements[k]
        distance = users[user].position.distance_to(
            graph.locations[loc_index]
        )
        if distance > uav.user_range_m + 1e-9:
            raise ValidationError(
                f"user {user} is {distance:.1f} m from UAV {k}, beyond its "
                f"range {uav.user_range_m} m"
            )
        rate = graph.rate_bps(user, loc_index, uav)
        required = users[user].min_rate_bps
        if rate < required - 1e-9:
            raise ValidationError(
                f"user {user} gets {rate:.0f} bps from UAV {k}, below its "
                f"requirement {required:.0f} bps"
            )

    if require_connected and deployment.num_deployed > 1:
        locs = deployment.locations_used()
        if not graph.locations_connected(locs):
            raise ValidationError(
                f"deployed locations {locs} do not induce a connected "
                "UAV network"
            )


def validate_cell_deployment(
    graph,
    fleet: list,
    deployment: CellDeployment,
    require_connected: bool = True,
) -> None:
    """Feasibility of a demand-cell deployment, from first principles.

    Mirrors :func:`validate_deployment` over the aggregated constraints:
    indices valid; per-UAV unit loads within capacity; per-cell served
    units within demand; every flow arc's cell provably coverable — the
    *padded* distance/rate test, so every member of a served cell is in
    range with an adequate rate; and (optionally) connectivity.
    ``graph`` must be a cell graph
    (:class:`repro.workload.aggregate.CellCoverageGraph`).
    """
    for k, loc in deployment.placements.items():
        if not (0 <= k < len(fleet)):
            raise ValidationError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise ValidationError(
                f"location index {loc} outside [0, {graph.num_locations})"
            )

    num_cells = len(graph.cells)
    for (c, k), units in deployment.flows.items():
        if not (0 <= c < num_cells):
            raise ValidationError(
                f"cell index {c} outside [0, {num_cells})"
            )
        if k not in deployment.placements:
            raise ValidationError(
                f"cell {c} sends {units} unit(s) to UAV {k}, which has no "
                "placement in this deployment"
            )

    loads = deployment.loads()
    for k, load in loads.items():
        capacity = fleet[k].capacity
        if load > capacity:
            raise ValidationError(
                f"UAV {k} serves {load} units, exceeding capacity {capacity}"
            )

    for c, total in deployment.cell_totals().items():
        demand = graph.cells[c].demand
        if total > demand:
            raise ValidationError(
                f"cell {c} serves {total} units, exceeding its demand "
                f"{demand} (double-counted members)"
            )

    for (c, k), _units in deployment.flows.items():
        cell = graph.cells[c]
        uav = fleet[k]
        loc = graph.locations[deployment.placements[k]]
        # Padded test: the worst-placed member sits at most radius_m
        # beyond the centroid, so pad the ground distance by it.
        horiz = math.hypot(cell.x - loc.x, cell.y - loc.y) + cell.radius_m
        dist3 = math.hypot(horiz, loc.z)
        if dist3 > uav.user_range_m + 1e-9:
            raise ValidationError(
                f"cell {c} (padded) is {dist3:.1f} m from UAV {k}, beyond "
                f"its range {uav.user_range_m} m"
            )
        pl = float(
            np.asarray(
                graph.channel.pathloss_vector_db(np.array([horiz]), loc.z)
            ).ravel()[0]
        )
        snr_db = uav.tx_power_dbm + uav.antenna_gain_db - pl - graph.noise_dbm
        rate = graph.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))
        if rate < cell.min_rate_bps - 1e-9:
            raise ValidationError(
                f"cell {c} gets {rate:.0f} bps (padded) from UAV {k}, below "
                f"its requirement {cell.min_rate_bps:.0f} bps"
            )

    if require_connected and deployment.num_deployed > 1:
        locs = deployment.locations_used()
        if not graph.locations_connected(locs):
            raise ValidationError(
                f"deployed locations {locs} do not induce a connected "
                "UAV network"
            )


def is_feasible(
    graph: CoverageGraph,
    fleet: list,
    deployment: Deployment,
    require_connected: bool = True,
) -> bool:
    """Boolean wrapper around :func:`validate_deployment`."""
    try:
        validate_deployment(graph, fleet, deployment, require_connected)
    except ValidationError:
        return False
    return True
