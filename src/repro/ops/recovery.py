"""Connectivity of a deployed UAV network under link faults.

A deployment relays traffic only between UAVs whose hovering locations
are adjacent in the candidate-location graph.  :func:`uav_components`
splits the deployed UAVs into the components that remain once degraded
inter-UAV links are subtracted; the dynamics engine keeps the largest one
online (:meth:`repro.dynamics.WorldState.active_placements`) and adopts a
repair plan only if :func:`residual_connected` holds for it.
"""

from __future__ import annotations

from repro.core.problem import ProblemInstance


def _degraded_location_pairs(placements: dict, degraded_links: set) -> set:
    """Map degraded UAV pairs to location pairs under current placements."""
    pairs = set()
    for a, b in degraded_links:
        if a in placements and b in placements:
            la, lb = placements[a], placements[b]
            pairs.add((min(la, lb), max(la, lb)))
    return pairs


def uav_components(
    problem: ProblemInstance, placements: dict, degraded_links: set = frozenset()
) -> list:
    """Connected components of the deployed UAV network, as sorted lists of
    fleet indices.  Adjacency is the candidate-location graph induced on
    the occupied locations, minus any degraded links."""
    adjacency = problem.graph.location_graph
    dead_pairs = _degraded_location_pairs(placements, degraded_links)
    uav_at = {loc: k for k, loc in placements.items()}
    components = []
    seen: set = set()
    for start in sorted(placements):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            k = queue.pop()
            loc = placements[k]
            for w in adjacency.neighbours(loc):
                other = uav_at.get(w)
                if other is None or other in seen:
                    continue
                if (min(loc, w), max(loc, w)) in dead_pairs:
                    continue
                seen.add(other)
                comp.append(other)
                queue.append(other)
        components.append(sorted(comp))
    return components


def residual_connected(
    problem: ProblemInstance, placements: dict, degraded_links: set = frozenset()
) -> bool:
    """Whether the deployed network is one component once degraded links are
    subtracted (empty and single-UAV deployments count as connected)."""
    return len(uav_components(problem, placements, degraded_links)) <= 1
