"""Connectivity-free greedy — an upper reference point (ours, not in the
paper): capacity- and heterogeneity-aware greedy placement that *ignores*
the connectivity constraint.  Its deployments are generally infeasible for
the maximum connected coverage problem; they bound how much coverage the
connectivity requirement costs, which the ablation bench reports."""

from __future__ import annotations

import numpy as np

from repro.core.assignment import optimal_assignment
from repro.core.lazy import LazyGains
from repro.core.problem import ProblemInstance
from repro.flow.bipartite import IncrementalAssignment
from repro.network.deployment import Deployment


def unconstrained_greedy(problem: ProblemInstance) -> Deployment:
    """Greedy exact-marginal-gain placement without connectivity.

    UAVs are placed in decreasing capacity order; each goes to the free
    location with the largest exact gain in served users (the lowest
    location on ties), found by the lazy scan of
    :class:`repro.core.lazy.LazyGains`.  The problem instance guarantees
    a free location for every UAV.
    """
    graph = problem.graph
    fleet = problem.fleet
    engine = IncrementalAssignment(graph.num_users)
    lazy = LazyGains(engine, graph, fleet, "unconstrained.oracle_calls")
    placements: dict = {}
    free = np.arange(graph.num_locations)
    for k in problem.capacity_order():
        uav = fleet[k]
        v = int(free[lazy.argmax(k, free, lazy.static(k, free), (free,))])
        engine.open((k, v), lazy.table.cover(k, v), uav.capacity)
        placements[k] = v
        free = free[free != v]
    return optimal_assignment(graph, fleet, placements)
