"""The column-wise validators against the scalar ones they replaced.

:func:`repro.network.validate.validate_deployment` and
:func:`~repro.network.validate.validate_cell_deployment` check range and
rate for every assigned link at once.  The oracles below are the earlier
scalar bodies, copied verbatim: one :class:`Point3D` distance and one
scalar path loss per user (per flow arc on cell graphs).  Over seeded
solved deployments, and over the same deployments mutated to break one
constraint, the column validator must raise exactly when the oracle does,
with the same message.  The mutations:

* a user (cell) moved just outside its UAV's range, and just inside;
* a user's (cell's) minimum rate raised just above its achieved rate,
  and set just below it;
* a UAV's capacity cut below its load;
* a user (cell) assigned to a UAV without a placement.

The scalar oracle computes path loss by a different float route than the
vectorised channel model, so every mutation keeps well clear of the
validators' ``1e-9`` tolerances (micrometres, millibits per second).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.approx import appro_alg
from repro.network.coverage import CoverageGraph
from repro.network.deployment import CellDeployment, Deployment
from repro.network.users import UserTable
from repro.network.validate import (
    ValidationError,
    validate_cell_deployment,
    validate_deployment,
)
from repro.workload.aggregate import aggregate_problem
from repro.workload.scenarios import paper_scenario


def oracle_validate_deployment(
    graph: CoverageGraph,
    fleet: list,
    deployment: Deployment,
    require_connected: bool = True,
) -> None:
    """The scalar per-user validator, verbatim."""
    for k, loc in deployment.placements.items():
        if not (0 <= k < len(fleet)):
            raise ValidationError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise ValidationError(
                f"location index {loc} outside [0, {graph.num_locations})"
            )

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


def oracle_validate_cell_deployment(
    graph,
    fleet: list,
    deployment: CellDeployment,
    require_connected: bool = True,
) -> None:
    """The scalar per-arc cell validator, verbatim."""
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


def outcome(validator, *args) -> "str | None":
    """The validator's error message, or None when it passes."""
    try:
        validator(*args)
    except ValidationError as err:
        return str(err)
    return None


def assert_agree(graph, fleet, deployment, expect_error: bool) -> None:
    if isinstance(deployment, CellDeployment):
        got = outcome(validate_cell_deployment, graph, fleet, deployment)
        want = outcome(oracle_validate_cell_deployment, graph, fleet,
                       deployment)
    else:
        got = outcome(validate_deployment, graph, fleet, deployment)
        want = outcome(oracle_validate_deployment, graph, fleet, deployment)
    assert got == want
    assert (want is not None) == expect_error


SEEDS = range(4)


def solved(seed: int, cells: bool) -> tuple:
    """(problem, deployment): a small paper scenario solved by approAlg,
    per user or over 150 m demand cells."""
    problem = paper_scenario(num_users=400, num_uavs=6, scale="small",
                             seed=seed)
    if cells:
        problem = aggregate_problem(problem, 150.0)
    deployment = appro_alg(problem, s=1, max_anchor_candidates=4).deployment
    assert deployment.served_count > 0
    return problem, deployment


def links(deployment) -> list:
    """``(point, uav)`` of every served user or flow arc, in order."""
    if isinstance(deployment, CellDeployment):
        return list(deployment.flows)
    return list(deployment.assignment.items())


def ground_point_at(graph, loc_index: int, dist3: float, pad: float,
                    toward: np.ndarray) -> np.ndarray:
    """A ground point whose padded 3-D distance from ``loc_index`` is
    ``dist3``, on the ray from the location toward ``toward``."""
    loc = graph.locations[loc_index]
    ground = math.sqrt(dist3 * dist3 - loc.z * loc.z) - pad
    direction = toward - np.array([loc.x, loc.y])
    norm = float(np.hypot(*direction))
    unit = direction / norm if norm > 0 else np.array([1.0, 0.0])
    return np.array([loc.x, loc.y]) + ground * unit


def with_point(graph, point: int, xy=None, min_rate=None):
    """``graph`` with one user (centroid) row edited."""
    table = graph.user_table()
    new_xy, rates = table.xy.copy(), table.min_rate_bps.copy()
    if xy is not None:
        new_xy[point] = xy
    if min_rate is not None:
        rates[point] = min_rate
    if hasattr(graph, "cells"):
        cells = [
            dataclasses.replace(
                cell, x=float(new_xy[c, 0]), y=float(new_xy[c, 1]),
                min_rate_bps=float(rates[c]),
            ) if c == point else cell
            for c, cell in enumerate(graph.cells)
        ]
        edited = type(graph)(cells=cells, locations=graph.locations,
                             uav_range_m=graph.uav_range_m,
                             channel=graph.channel,
                             bandwidth_hz=graph.bandwidth_hz)
        edited.noise_dbm = graph.noise_dbm
        return edited
    return graph.with_users(UserTable(new_xy, rates))


def pad_of(graph, point: int) -> float:
    return float(graph.cell_radii[point]) if hasattr(graph, "cells") else 0.0


def achieved_rate(graph, fleet, deployment, point: int, k: int) -> float:
    """The scalar rate the oracle computes for one link."""
    loc = graph.locations[deployment.placements[k]]
    uav = fleet[k]
    table = graph.user_table()
    horiz = math.hypot(table.xy[point, 0] - loc.x,
                       table.xy[point, 1] - loc.y) + pad_of(graph, point)
    pl = graph.channel.pathloss_at_db(horiz, loc.z)
    snr_db = uav.tx_power_dbm + uav.antenna_gain_db - pl - graph.noise_dbm
    return graph.bandwidth_hz * math.log2(1.0 + 10.0 ** (snr_db / 10.0))


@pytest.mark.parametrize("cells", [False, True], ids=["users", "cells"])
@pytest.mark.parametrize("seed", SEEDS)
def test_solved_deployments_pass_both(seed, cells):
    problem, deployment = solved(seed, cells)
    assert_agree(problem.graph, problem.fleet, deployment, False)


@pytest.mark.parametrize("cells", [False, True], ids=["users", "cells"])
@pytest.mark.parametrize("seed", SEEDS)
def test_moved_across_the_range(seed, cells):
    """Just outside the range both raise the range error; just inside
    both pass the range test (and then agree on the rate test)."""
    problem, deployment = solved(seed, cells)
    graph, fleet = problem.graph, problem.fleet
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(links(deployment)), size=3, replace=False)
    for i in picks.tolist():
        point, k = links(deployment)[i]
        reach = fleet[k].user_range_m
        toward = graph.user_table().xy[point]
        for delta, beyond in ((1e-6, True), (-1e-6, False)):
            xy = ground_point_at(graph, deployment.placements[k],
                                 reach + delta, pad_of(graph, point), toward)
            edited = with_point(graph, point, xy=xy)
            got = outcome(
                validate_cell_deployment if cells else validate_deployment,
                edited, fleet, deployment,
            )
            want = outcome(
                oracle_validate_cell_deployment if cells
                else oracle_validate_deployment,
                edited, fleet, deployment,
            )
            assert got == want
            assert (want is not None and "beyond" in want) == beyond


@pytest.mark.parametrize("cells", [False, True], ids=["users", "cells"])
@pytest.mark.parametrize("seed", SEEDS)
def test_min_rate_across_the_achieved_rate(seed, cells):
    problem, deployment = solved(seed, cells)
    graph, fleet = problem.graph, problem.fleet
    rng = np.random.default_rng(100 + seed)
    picks = rng.choice(len(links(deployment)), size=3, replace=False)
    for i in picks.tolist():
        point, k = links(deployment)[i]
        rate = achieved_rate(graph, fleet, deployment, point, k)
        for delta, short in ((1e-3, True), (-1e-3, False)):
            edited = with_point(graph, point, min_rate=rate + delta)
            assert_agree(edited, fleet, deployment, short)


@pytest.mark.parametrize("cells", [False, True], ids=["users", "cells"])
@pytest.mark.parametrize("seed", SEEDS)
def test_load_over_capacity(seed, cells):
    problem, deployment = solved(seed, cells)
    loads = deployment.loads()
    k = max(loads, key=loads.get)
    fleet = list(problem.fleet)
    for capacity, over in ((loads[k] - 1, True), (loads[k], False)):
        fleet[k] = dataclasses.replace(fleet[k], capacity=capacity)
        assert_agree(problem.graph, fleet, deployment, over)


@pytest.mark.parametrize("cells", [False, True], ids=["users", "cells"])
@pytest.mark.parametrize("seed", SEEDS)
def test_assigned_to_an_unplaced_uav(seed, cells):
    problem, deployment = solved(seed, cells)
    placed = set(deployment.placements)
    spare = next(k for k in range(len(problem.fleet)) if k not in placed) \
        if len(placed) < len(problem.fleet) else len(problem.fleet) + 3
    point, _ = links(deployment)[len(links(deployment)) // 2]
    if cells:
        deployment.flows[(point, spare)] = 1
    else:
        deployment.assignment[point] = spare
    assert_agree(problem.graph, problem.fleet, deployment, True)
    # A placement removed from under its served users.
    problem, deployment = solved(seed, cells)
    k = next(iter(deployment.placements))
    del deployment.placements[k]
    assert_agree(problem.graph, problem.fleet, deployment, True)


def test_first_violation_in_assignment_order():
    """Two bad users: both validators name the earlier one."""
    problem, deployment = solved(0, False)
    graph, fleet = problem.graph, problem.fleet
    (first, k1), (second, k2) = list(deployment.assignment.items())[3:5]
    rates = graph.user_table().min_rate_bps.copy()
    rates[first] = 1e12
    xy = graph.user_table().xy.copy()
    xy[second] = ground_point_at(graph, deployment.placements[k2],
                                 fleet[k2].user_range_m + 5.0, 0.0, xy[second])
    edited = graph.with_users(UserTable(xy, rates))
    assert_agree(edited, fleet, deployment, True)
    assert f"user {first} gets" in outcome(
        validate_deployment, edited, fleet, deployment
    )
