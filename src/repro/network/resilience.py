"""Deployment resilience analysis (extension; motivated by the paper's
disaster setting — a UAV can fail, run out of battery, or be recalled, and
"the data from the users served by one UAV may need to be sent to the
users served by another UAV", so connectivity losses are service losses).

For a deployment this module reports, per single-UAV failure:

* whether the failure splits the remaining UAV network (the failed UAV's
  location is a cut vertex / articulation point of the induced subgraph),
* how many users remain served afterwards, assuming the operator keeps
  only the largest connected remnant online and re-assigns users optimally.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.graphs.adjacency import Graph
from repro.network.deployment import Deployment


def articulation_points(graph: Graph, nodes: list) -> set:
    """Articulation points of the subgraph induced by ``nodes``.

    Iterative Tarjan low-link computation (no recursion: deployments can
    be long chains).  Returns original node ids whose removal increases
    the number of connected components among the remaining nodes.
    """
    node_set = set(nodes)
    index = {v: i for i, v in enumerate(sorted(node_set))}
    n = len(index)
    adj: list = [[] for _ in range(n)]
    for v in node_set:
        for w in graph.neighbours(v):
            if w in node_set:
                adj[index[v]].append(index[w])

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_cut = [False] * n
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        stack = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, edge_idx = stack[-1]
            if edge_idx < len(adj[v]):
                stack[-1] = (v, edge_idx + 1)
                w = adj[v][edge_idx]
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, 0))
                elif w != parent[v]:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                p = parent[v]
                if p != -1:
                    low[p] = min(low[p], low[v])
                    if p != root and low[v] >= disc[p]:
                        is_cut[p] = True
        if root_children > 1:
            is_cut[root] = True

    reverse = {i: v for v, i in index.items()}
    return {reverse[i] for i in range(n) if is_cut[i]}


@dataclass(frozen=True)
class FailureImpact:
    """Impact of one UAV failing."""

    uav_index: int
    location: int
    splits_network: bool
    surviving_uavs: int       # UAVs still online (largest remnant)
    served_after: int
    served_lost: int


def _largest_remnant(graph: Graph, nodes: list) -> list:
    """Largest connected component among ``nodes`` in ``graph``."""
    remaining = set(nodes)
    best: list = []
    seen: set = set()
    for start in sorted(remaining):
        if start in seen:
            continue
        component = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for w in graph.neighbours(v):
                if w in remaining and w not in seen:
                    seen.add(w)
                    component.append(w)
                    queue.append(w)
        if len(component) > len(best):
            best = component
    return best


def single_failure_impacts(
    problem: ProblemInstance, deployment: Deployment
) -> list:
    """Impact of each single-UAV failure, sorted by users lost (worst
    first).  The operator policy modelled: the largest connected remnant
    stays online; stranded UAVs (disconnected from it) stop serving."""
    graph = problem.graph
    base_served = optimal_assignment(
        graph, problem.fleet, deployment.placements
    ).served_count
    location_graph = graph.location_graph
    locations = deployment.locations_used()
    cuts = articulation_points(location_graph, locations)

    impacts = []
    for failed_uav, failed_loc in sorted(deployment.placements.items()):
        rest = [loc for loc in locations if loc != failed_loc]
        remnant = set(_largest_remnant(location_graph, rest)) if rest else set()
        placements = {
            k: loc
            for k, loc in deployment.placements.items()
            if loc in remnant
        }
        served_after = optimal_assignment(
            graph, problem.fleet, placements
        ).served_count
        impacts.append(
            FailureImpact(
                uav_index=failed_uav,
                location=failed_loc,
                splits_network=failed_loc in cuts,
                surviving_uavs=len(placements),
                served_after=served_after,
                served_lost=base_served - served_after,
            )
        )
    impacts.sort(key=lambda fi: (-fi.served_lost, fi.uav_index))
    return impacts

