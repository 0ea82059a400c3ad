"""Optimal user assignment for fixed UAV placements (Section II-D).

Given deployed UAVs, build the flow network ``s -> users -> locations -> t``
(unit arcs into and out of each user, capacity ``C_k`` from each location to
the sink) and compute an integral maximum flow; the saturated user-location
arcs form an optimal assignment.  This is the ``Lemma 1`` subroutine and
also the final step (line 25) of Algorithm 2.
"""

from __future__ import annotations

import numpy as np

from repro.flow.dinic import Dinic
from repro.network.coverage import CoverageGraph
from repro.network.deployment import CellDeployment, Deployment


def _station_flows(supply: np.ndarray, deployed: list, fleet: list,
                   covers: list, arc_caps: list,
                   seeds: "list | None" = None) -> tuple:
    """Max flow on ``source -> point -> station -> sink`` and the flow on
    every point -> station arc.

    Node ids: 0 = source, 1..p = points, then one per station
    (``deployed`` order), last = sink.  Arcs, in insertion order: source
    -> point ``i`` with capacity ``supply[i]``, then per station its arcs
    from the points in ``covers[st]`` (capacities ``arc_caps[st]``) and
    its sink arc (the UAV's capacity).  ``seeds`` optionally gives a
    feasible flow to start from: the source arcs' flows, then per
    station its point arcs' flows (the sink arc carries their sum).
    Returns ``(points, uavs, flows)``, one entry per point -> station
    arc, station by station in cover order."""
    p = supply.size
    sink = p + len(deployed) + 1
    tails, heads, caps = [np.zeros(p)], [np.arange(1, p + 1)], [supply]
    flows = None if seeds is None else [seeds[0]]
    for st, ((k, _loc), cover) in enumerate(zip(deployed, covers)):
        station = p + 1 + st
        tails += [1 + cover, [station]]
        heads += [np.full(cover.size, station), [sink]]
        caps += [arc_caps[st], [fleet[k].capacity]]
        if seeds is not None:
            flows += [seeds[1 + st], [int(seeds[1 + st].sum())]]
    solver = Dinic(sink + 1)
    arcs = solver.add_edges(
        *(np.concatenate(part) for part in (tails, heads, caps)),
        None if flows is None else np.concatenate(flows),
    )
    solver.max_flow(0, sink)
    sizes = [cover.size for cover in covers]
    point_arcs = np.delete(arcs[p:], np.cumsum(np.add(sizes, 1)) - 1)
    return (np.concatenate(covers),
            np.repeat([k for k, _ in deployed], sizes),
            solver.flows_on(point_arcs))


def _checked_stations(graph: CoverageGraph, fleet: list,
                      placements: dict) -> list:
    deployed = sorted(placements.items())
    for k, loc in deployed:
        if not (0 <= k < len(fleet)):
            raise IndexError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise IndexError(
                f"location {loc} outside [0, {graph.num_locations})"
            )
    return deployed


def optimal_assignment(
    graph: CoverageGraph, fleet: list, placements: dict
) -> Deployment:
    """Maximise the number of served users for fixed ``placements``
    (mapping ``uav_index -> location_index``).

    Connectivity is *not* required here — this solves the maximum assignment
    problem, a subproblem where the placements are given (Section II-D).
    Returns a :class:`Deployment` with the optimal assignment filled in.
    """
    deployed = _checked_stations(graph, fleet, placements)
    n = graph.num_users
    if not deployed or n == 0:
        return Deployment(placements=dict(placements), assignment={})

    # Dinic's first phase on this network is a greedy pass: users in index
    # order each join the first station (in placement order) that covers
    # them and has spare capacity.  Equivalently, each station takes the
    # lowest C_k of its covered users that no earlier station took.  That
    # flow is seeded with the arcs, so max_flow starts at phase 2 and
    # ends on the same flow as from zero.
    covers = [graph.coverable_array(loc, fleet[k]) for k, loc in deployed]
    taken = np.zeros(n, dtype=np.int64)
    picked = []
    for (k, _loc), cover in zip(deployed, covers):
        mine = np.zeros(cover.size, dtype=np.int64)
        if fleet[k].capacity > 0:
            picks = np.flatnonzero(taken[cover] == 0)[:fleet[k].capacity]
            mine[picks] = 1
            taken[cover[picks]] = 1
        picked.append(mine)
    users, uavs, flows = _station_flows(
        np.ones(n, dtype=np.int64), deployed, fleet, covers,
        [np.ones(cover.size, dtype=np.int64) for cover in covers],
        [taken] + picked,
    )
    served = flows == 1
    users, uavs = users[served], uavs[served]
    if users.size and np.bincount(users).max() > 1:
        raise AssertionError(
            "a user saturates two assignment arcs; flow is corrupt"
        )
    assignment = dict(zip(users.tolist(), uavs.tolist()))
    return Deployment(placements=dict(placements), assignment=assignment)


def optimal_cell_assignment(
    graph: CoverageGraph, fleet: list, placements: dict
) -> CellDeployment:
    """Maximise served *units* over a demand-cell graph for fixed
    placements — the aggregated counterpart of :func:`optimal_assignment`.

    The flow network swaps the unit user arcs for capacitated cell arcs:
    ``source -(demand_c)-> cell c -(demand_c)-> station -(C_k)-> sink``.
    The max-flow value is the number of members served; saturation per
    cell may be split across stations, which :class:`CellDeployment`
    represents as a flow.
    """
    deployed = _checked_stations(graph, fleet, placements)
    demands = graph.cell_demands
    if not deployed or len(demands) == 0:
        return CellDeployment(placements=dict(placements), flows={})

    covers = [graph.coverable_array(loc, fleet[k]) for k, loc in deployed]
    cells, uavs, units = _station_flows(
        demands, deployed, fleet, covers,
        [demands[cover] for cover in covers],
    )
    used = units > 0
    flows = dict(zip(zip(cells[used].tolist(), uavs[used].tolist()),
                     units[used].tolist()))
    return CellDeployment(placements=dict(placements), flows=flows)


def max_served(graph: CoverageGraph, fleet: list, placements: dict) -> int:
    """Just the optimal objective value for fixed placements."""
    return optimal_assignment(graph, fleet, placements).served_count


def max_throughput_assignment(
    graph: CoverageGraph, fleet: list, placements: dict
) -> Deployment:
    """Throughput-optimal assignment for fixed placements — the objective
    of Xu et al. [37], solved exactly.

    Maximises the sum of served users' data rates subject to the same
    coverage/capacity constraints.  Reduction: expand each UAV into
    ``C_k`` unit slots and solve a rectangular min-cost assignment of
    users to slots with cost ``-rate`` (serving nobody costs 0, encoded by
    per-user "idle" slots).  Exact but O(n^2 (slots + n)) — use for
    analysis at moderate scale, not inside placement loops.

    Note the objective trade-off this exposes: rate-optimal assignments
    may *serve fewer users* than the paper's coverage-optimal ones, since
    one excellent link can outweigh two mediocre ones in sum-rate.
    """
    deployed = sorted(placements.items())
    n = graph.num_users
    if not deployed or n == 0:
        return Deployment(placements=dict(placements), assignment={})

    # Columns: one slot per unit of UAV capacity (capped at n — a UAV can
    # never serve more than all users), then n idle slots (zero cost).
    slot_owner: list = []
    for k, _loc in deployed:
        slot_owner.extend([k] * min(fleet[k].capacity, n))
    num_service_slots = len(slot_owner)

    rates: dict = {}
    for k, loc in deployed:
        uav = fleet[k]
        for u in graph.coverable_users(loc, uav):
            rates[(u, k)] = graph.rate_bps(u, loc, uav)

    import math

    costs = []
    for u in range(n):
        row = []
        for slot, k in enumerate(slot_owner):
            rate = rates.get((u, k))
            row.append(-rate if rate is not None else math.inf)
        row.extend([0.0] * n)  # idle slots
        costs.append(row)

    from repro.flow.mincost import min_cost_assignment

    assignment_cols, _total = min_cost_assignment(costs)
    assignment = {}
    for u, col in enumerate(assignment_cols):
        if col < num_service_slots:
            assignment[u] = slot_owner[col]
    return Deployment(placements=dict(placements), assignment=assignment)


def total_rate_bps(
    graph: CoverageGraph, fleet: list, deployment: Deployment
) -> float:
    """Sum of served users' rates for any deployment (helper for the
    objective comparison)."""
    total = 0.0
    for u, k in deployment.assignment.items():
        total += graph.rate_bps(u, deployment.placements[k], fleet[k])
    return total
