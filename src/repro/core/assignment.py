"""Optimal user assignment for fixed UAV placements (Section II-D).

Given deployed UAVs, build the flow network ``s -> users -> locations -> t``
(unit arcs into and out of each user, capacity ``C_k`` from each location to
the sink) and compute an integral maximum flow; the saturated user-location
arcs form an optimal assignment.  This is the ``Lemma 1`` subroutine and
also the final step (line 25) of Algorithm 2.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.flow.dinic import Dinic
from repro.network.coverage import CoverageGraph
from repro.network.deployment import CellDeployment, Deployment


def optimal_assignment(
    graph: CoverageGraph, fleet: list, placements: dict
) -> Deployment:
    """Maximise the number of served users for fixed ``placements``
    (mapping ``uav_index -> location_index``).

    Connectivity is *not* required here — this solves the maximum assignment
    problem, a subproblem where the placements are given (Section II-D).
    Returns a :class:`Deployment` with the optimal assignment filled in.
    """
    deployed = sorted(placements.items())
    for k, loc in deployed:
        if not (0 <= k < len(fleet)):
            raise IndexError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise IndexError(
                f"location {loc} outside [0, {graph.num_locations})"
            )

    n = graph.num_users
    num_stations = len(deployed)
    if num_stations == 0 or n == 0:
        return Deployment(placements=dict(placements), assignment={})

    # Node ids: 0 = source, 1..n = users, n+1..n+stations = stations, last = sink.
    source = 0
    sink = n + num_stations + 1
    solver = Dinic(sink + 1)
    source_arcs = [solver.add_edge(source, 1 + u, 1) for u in range(n)]

    # Dinic's first phase on this network is a greedy pass: users in index
    # order each join the first station (in placement order) that covers
    # them and has spare capacity.  Equivalently, each station takes the
    # lowest C_k of its covered users that no earlier station took.  That
    # flow is seeded here in one step, so max_flow starts at phase 2 and
    # ends on the same flow as from zero.
    taken = np.zeros(n, dtype=bool)
    user_station_arcs: list = []  # (arc_id, user, uav_index)
    for st, (k, loc) in enumerate(deployed):
        uav = fleet[k]
        station_node = n + 1 + st
        cover = graph.coverable_array(loc, uav)
        users = cover.tolist()
        arcs = [solver.add_edge(1 + u, station_node, 1) for u in users]
        user_station_arcs.extend(zip(arcs, users, repeat(k)))
        sink_arc = solver.add_edge(station_node, sink, uav.capacity)
        picks = np.flatnonzero(~taken[cover])[:uav.capacity]
        taken[cover[picks]] = True
        for i in picks.tolist():
            solver.add_flow(source_arcs[users[i]], 1)
            solver.add_flow(arcs[i], 1)
        solver.add_flow(sink_arc, len(picks))

    solver.max_flow(source, sink)

    assignment = {}
    for arc, u, k in user_station_arcs:
        if solver.flow_on(arc) == 1:
            if u in assignment:
                raise AssertionError(
                    f"user {u} saturates two assignment arcs; flow is corrupt"
                )
            assignment[u] = k
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
    deployed = sorted(placements.items())
    for k, loc in deployed:
        if not (0 <= k < len(fleet)):
            raise IndexError(f"UAV index {k} outside fleet of {len(fleet)}")
        if not (0 <= loc < graph.num_locations):
            raise IndexError(
                f"location {loc} outside [0, {graph.num_locations})"
            )

    demands = graph.cell_demands
    d = len(demands)
    num_stations = len(deployed)
    if num_stations == 0 or d == 0:
        return CellDeployment(placements=dict(placements), flows={})

    # Node ids: 0 = source, 1..d = cells, d+1..d+stations, last = sink.
    source = 0
    sink = d + num_stations + 1
    solver = Dinic(sink + 1)
    for c in range(d):
        solver.add_edge(source, 1 + c, int(demands[c]))

    cell_station_arcs: list = []  # (arc_id, cell, uav_index)
    for st, (k, loc) in enumerate(deployed):
        uav = fleet[k]
        station_node = d + 1 + st
        for c in graph.coverable_users(loc, uav):
            arc = solver.add_edge(1 + c, station_node, int(demands[c]))
            cell_station_arcs.append((arc, c, k))
        solver.add_edge(station_node, sink, uav.capacity)

    solver.max_flow(source, sink)

    flows: dict = {}
    for arc, c, k in cell_station_arcs:
        units = solver.flow_on(arc)
        if units > 0:
            flows[(c, k)] = units
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
