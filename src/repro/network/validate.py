"""Independent feasibility validation of deployments (Section II-C's
constraints (i)-(iii)).

Every algorithm's output in this library — the proposed approximation and
all baselines — is run through :func:`validate_deployment` in tests; it
re-derives feasibility from first principles (distances, rates, capacities,
connectivity) without trusting any cached structure the algorithms used.
The distance and rate checks run column-wise over every assigned link at
once, from the raw user and location coordinates, the radios and the
channel model; the first violation in assignment order is reported.
"""

from __future__ import annotations

import numpy as np

from repro.network.coverage import CoverageGraph
from repro.network.deployment import CellDeployment, Deployment, whole_units


class ValidationError(AssertionError):
    """A deployment violates one of the problem's constraints."""


def _check_placements(graph, fleet: list, placements: dict) -> None:
    """Valid UAV and location indices, and at most one UAV per location
    (``placements`` is a plain mutable dict, so the constructor's clash
    check may no longer hold)."""
    for k, loc in placements.items():
        if not (0 <= k < len(fleet)):
            raise ValidationError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise ValidationError(
                f"location index {loc} outside [0, {graph.num_locations})"
            )
    holder: dict = {}
    for k, loc in placements.items():
        if loc in holder:
            raise ValidationError(
                f"UAVs {holder[loc]} and {k} share hovering location {loc}"
            )
        holder[loc] = k


def _check_loads(fleet: list, loads: dict, unit: str) -> None:
    for k, load in loads.items():
        capacity = fleet[k].capacity
        if load > capacity:
            raise ValidationError(
                f"UAV {k} serves {load} {unit}, exceeding capacity {capacity}"
            )


def _first_failing_link(graph, fleet: list, placements: dict,
                        ks: np.ndarray, xy: np.ndarray, pad,
                        required: np.ndarray) -> "tuple | None":
    """The first link, in order, from ground point ``xy[i]`` (ground
    distance padded by ``pad``) to placed UAV ``ks[i]`` that is beyond
    the UAV's user range or whose Shannon rate under the UAV's radio
    (path loss per altitude) is below ``required[i]``: ``(i, distance,
    rate, beyond)``, or ``None`` when every link holds."""
    size = len(fleet)
    loc_xyz = np.zeros((size, 3))
    eirp = np.zeros(size)
    reach = np.zeros(size)
    for k, loc in placements.items():
        p = graph.locations[loc]
        loc_xyz[k] = (p.x, p.y, p.z)
        eirp[k] = fleet[k].tx_power_dbm + fleet[k].antenna_gain_db
        reach[k] = fleet[k].user_range_m
    at = loc_xyz[ks]
    horiz = np.hypot(xy[:, 0] - at[:, 0], xy[:, 1] - at[:, 1]) + pad
    alt = at[:, 2]
    loss = np.empty(len(ks))
    for z in set(alt.tolist()):
        layer = alt == z
        loss[layer] = graph.channel.pathloss_vector_db(horiz[layer], z)
    snr_db = eirp[ks] - loss - graph.noise_dbm
    rate = graph.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
    dist3 = np.hypot(horiz, alt)
    beyond = dist3 > reach[ks] + 1e-9
    bad = beyond | (rate < required - 1e-9)
    if not bad.any():
        return None
    i = int(np.argmax(bad))
    return i, float(dist3[i]), float(rate[i]), bool(beyond[i])


def validate_deployment(
    graph: CoverageGraph,
    fleet: list,
    deployment: Deployment,
    require_connected: bool = True,
) -> None:
    """Raise :class:`ValidationError` on any constraint violation.

    Checks, in order: UAV and location indices are valid; at most one UAV
    per location; every assignment names a placed UAV; per-UAV loads
    within capacity; every served user is within its UAV's coverage
    radius with an adequate rate (the first offender in assignment order
    is reported); and (optionally) the deployed locations induce a
    connected UAV-to-UAV graph.
    """
    placements = deployment.placements
    _check_placements(graph, fleet, placements)

    # Deployment.__post_init__ rejects assignments to undeployed UAVs, but
    # placements/assignment are plain (mutable) dicts; a corrupted
    # deployment must fail validation, not raise a bare KeyError below
    # (loads() and the link checks both index placements/fleet).
    for user, k in deployment.assignment.items():
        if k not in placements:
            raise ValidationError(
                f"user {user} is assigned to UAV {k}, which has no "
                "placement in this deployment"
            )
        if not (0 <= k < len(fleet)):
            raise ValidationError(
                f"user {user} is assigned to UAV {k} outside fleet of "
                f"{len(fleet)}"
            )

    _check_loads(fleet, deployment.loads(), "users")

    if deployment.assignment:
        table = graph.user_table()
        n = len(table.min_rate_bps)
        users = list(deployment.assignment)
        try:
            index = np.array(users, dtype=np.int64)
        except OverflowError:
            index = np.array([u if 0 <= u < n else -1 for u in users],
                             dtype=np.int64)
        ks = np.fromiter(deployment.assignment.values(), dtype=np.int64,
                         count=len(users))
        # Only the links before the first unknown user index can fail
        # ahead of it.
        unknown = (index < 0) | (index >= n)
        checked = int(np.argmax(unknown)) if unknown.any() else len(users)
        failing = None
        if checked:
            rows = index[:checked]
            failing = _first_failing_link(
                graph, fleet, placements, ks[:checked], table.xy[rows], 0.0,
                table.min_rate_bps[rows],
            )
        if failing is None and checked < len(users):
            raise ValidationError(
                f"user index {users[checked]} outside [0, {n})"
            )
        if failing is not None:
            i, distance, rate, beyond = failing
            user = users[i]
            k = deployment.assignment[user]
            if beyond:
                raise ValidationError(
                    f"user {user} is {distance:.1f} m from UAV {k}, beyond "
                    f"its range {fleet[k].user_range_m} m"
                )
            raise ValidationError(
                f"user {user} gets {rate:.0f} bps from UAV {k}, below its "
                f"requirement {table.min_rate_bps[user]:.0f} bps"
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
    indices valid and at most one UAV per location; every flow a whole
    number of units (at least one) to a placed UAV; per-UAV unit loads
    within capacity; per-cell served units within demand; every flow
    arc's cell provably coverable — the *padded* distance/rate test, so
    every member of a served cell is in range with an adequate rate (the
    first offending arc in flow order is reported); and (optionally)
    connectivity.  ``graph`` must be a cell graph
    (:class:`repro.workload.aggregate.CellCoverageGraph`).
    """
    placements = deployment.placements
    _check_placements(graph, fleet, placements)

    num_cells = graph.num_cells
    for (c, k), units in deployment.flows.items():
        if not (0 <= c < num_cells):
            raise ValidationError(
                f"cell index {c} outside [0, {num_cells})"
            )
        if k not in placements:
            raise ValidationError(
                f"cell {c} sends {units} unit(s) to UAV {k}, which has no "
                "placement in this deployment"
            )
        # flows is a plain (mutable) dict: re-check what the constructor
        # checked.
        if not whole_units(units):
            raise ValidationError(
                f"cell {c} sends {units!r} unit(s) to UAV {k}; a flow must "
                "be a whole number of units, at least one"
            )

    _check_loads(fleet, deployment.loads(), "units")

    demands = graph.cell_demands
    for c, total in deployment.cell_totals().items():
        demand = int(demands[c])
        if total > demand:
            raise ValidationError(
                f"cell {c} serves {total} units, exceeding its demand "
                f"{demand} (double-counted members)"
            )

    if deployment.flows:
        arcs = list(deployment.flows)
        cells = np.array([c for c, _ in arcs], dtype=np.int64)
        ks = np.array([k for _, k in arcs], dtype=np.int64)
        table = graph.user_table()
        # Padded test: the worst-placed member sits at most radius_m
        # beyond the centroid, so pad the ground distance by it.
        failing = _first_failing_link(
            graph, fleet, placements, ks, table.xy[cells],
            graph.cell_radii[cells], table.min_rate_bps[cells],
        )
        if failing is not None:
            i, distance, rate, beyond = failing
            c, k = arcs[i]
            if beyond:
                raise ValidationError(
                    f"cell {c} (padded) is {distance:.1f} m from UAV {k}, "
                    f"beyond its range {fleet[k].user_range_m} m"
                )
            raise ValidationError(
                f"cell {c} gets {rate:.0f} bps (padded) from UAV {k}, "
                f"below its requirement {table.min_rate_bps[c]:.0f} bps"
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
