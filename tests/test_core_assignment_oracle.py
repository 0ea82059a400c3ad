"""The seeded final assignment against the all-Dinic one it replaced.

:func:`repro.core.assignment.optimal_assignment` seeds Dinic's first
phase in one step (each station takes the lowest ``C_k`` of its covered
users that no earlier station took) and runs Dinic from phase 2.  The
reference below is the previous body, which runs Dinic from an empty
flow.  Both must produce the identical ``assignment`` dict on every
placement, not just the same served count: the final deployment's digest
depends on which users each UAV serves.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.assignment import optimal_assignment
from repro.flow.dinic import Dinic
from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.network.users import users_from_points
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance


def dinic_assignment(graph, fleet: list, placements: dict) -> Deployment:
    """``optimal_assignment`` as it was: the whole max flow by Dinic."""
    deployed = sorted(placements.items())
    n = graph.num_users
    if not deployed or n == 0:
        return Deployment(placements=dict(placements), assignment={})
    source = 0
    sink = n + len(deployed) + 1
    solver = Dinic(sink + 1)
    for u in range(n):
        solver.add_edge(source, 1 + u, 1)
    arcs: list = []
    for st, (k, loc) in enumerate(deployed):
        uav = fleet[k]
        for u in graph.coverable_users(loc, uav):
            arcs.append((solver.add_edge(1 + u, n + 1 + st, 1), u, k))
        solver.add_edge(n + 1 + st, sink, uav.capacity)
    solver.max_flow(source, sink)
    assignment = {u: k for arc, u, k in arcs if solver.flow_on(arc) == 1}
    return Deployment(placements=dict(placements), assignment=assignment)


def assert_same(graph, fleet, placements) -> None:
    got = optimal_assignment(graph, fleet, placements)
    want = dinic_assignment(graph, fleet, placements)
    assert got.assignment == want.assignment
    assert got.placements == want.placements


def with_capacities(fleet: list, capacities) -> list:
    return [dataclasses.replace(uav, capacity=int(c))
            for uav, c in zip(fleet, capacities)]


HEADLINE = paper_scenario(num_users=600, num_uavs=12, scale="bench", seed=5)


@pytest.mark.parametrize("seed", range(12))
def test_random_placements_match_dinic(seed):
    """Random sub-fleets at random locations, capacities drawn from 0, 1,
    the scenario's own and 'more than every user'."""
    rng = np.random.default_rng(seed)
    graph, fleet = HEADLINE.graph, HEADLINE.fleet
    for _ in range(5):
        picks = rng.integers(0, 4, len(fleet))
        caps = [(0, 1, uav.capacity, graph.num_users + 5)[i]
                for uav, i in zip(fleet, picks)]
        trial = with_capacities(fleet, caps)
        size = int(rng.integers(1, len(fleet) + 1))
        uavs = rng.choice(len(fleet), size=size, replace=False)
        locs = rng.choice(graph.num_locations, size=size, replace=False)
        assert_same(graph, trial,
                    {int(k): int(v) for k, v in zip(uavs, locs)})


def test_crowded_placements_match_dinic():
    """Adjacent locations with small capacities: heavily overlapping
    covers, so later phases must reroute the seeded flow."""
    graph, fleet = HEADLINE.graph, HEADLINE.fleet
    busiest = np.argsort([-len(graph.coverable_users(v, fleet[0]))
                          for v in range(graph.num_locations)])
    locs = [int(v) for v in busiest[:len(fleet)]]
    for caps in ([3] * len(fleet), list(range(len(fleet))),
                 [1, 50] * (len(fleet) // 2)):
        assert_same(graph, with_capacities(fleet, caps),
                    dict(enumerate(locs)))


def test_one_station_and_empty_covers():
    problem = make_line_instance(
        num_locations=6, users_per_location=(4, 0, 3, 0, 5, 2),
        capacities=(2, 3, 0, 9, 1, 4), spacing=350.0,
    )
    graph, fleet = problem.graph, problem.fleet
    assert_same(graph, fleet, {0: 0})
    assert_same(graph, fleet, {3: 1})          # over nobody
    assert_same(graph, fleet, {2: 0, 3: 1})    # capacity 0 first
    assert_same(graph, fleet, {k: k for k in range(6)})
    assert_same(graph, fleet, {k: 5 - k for k in range(6)})
    assert_same(graph, fleet, {})


def test_no_users():
    graph = CoverageGraph(users=users_from_points([]),
                          locations=HEADLINE.graph.locations[:4],
                          uav_range_m=600.0)
    assert graph.num_users == 0
    assert_same(graph, HEADLINE.fleet, {0: 0, 1: 2})


class TestAddFlow:
    def test_pushes_within_the_residual(self):
        d = Dinic(3)
        a = d.add_edge(0, 1, 2)
        b = d.add_edge(1, 2, 1)
        d.add_flow(a, 1)
        d.add_flow(b, 1)
        assert d.flow_on(a) == 1 and d.flow_on(b) == 1
        d.add_flow(a, 1)
        assert d.flow_on(a) == 2
        d.add_flow(a, 0)

    def test_rejects_flow_above_the_residual(self):
        d = Dinic(3)
        a = d.add_edge(0, 1, 2)
        with pytest.raises(ValueError):
            d.add_flow(a, 3)
        d.add_flow(a, 2)
        with pytest.raises(ValueError):
            d.add_flow(a, 1)
        with pytest.raises(ValueError):
            d.add_flow(a, -1)
        assert d.flow_on(a) == 2

    def test_max_flow_continues_from_a_seeded_flow(self):
        # Seed the 'wrong' path of the classic cross-edge network; Dinic
        # must reroute through the reverse arc to reach the maximum.
        d = Dinic(4)
        s_a = d.add_edge(0, 1, 1)
        d.add_edge(0, 2, 1)
        a_b = d.add_edge(1, 2, 1)
        d.add_edge(1, 3, 1)
        b_t = d.add_edge(2, 3, 1)
        for arc in (s_a, a_b, b_t):
            d.add_flow(arc, 1)
        assert d.max_flow(0, 3) == 1
        assert d.flow_on(a_b) == 0
