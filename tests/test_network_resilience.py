"""Tests for the resilience / failure-impact extension."""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import appro_alg
from repro.graphs.adjacency import Graph
from repro.network.deployment import Deployment
from repro.network.resilience import (
    articulation_points,
    single_failure_impacts,
)
from tests.conftest import make_line_instance


class TestArticulationPoints:
    def test_chain(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert articulation_points(g, [0, 1, 2, 3, 4]) == {1, 2, 3}

    def test_cycle_has_none(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert articulation_points(g, [0, 1, 2, 3]) == set()

    def test_star_center(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert articulation_points(g, [0, 1, 2, 3]) == {0}

    def test_induced_subgraph_only(self):
        # Full graph is a cycle, but the induced path 0-1-2 has cut 1.
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert articulation_points(g, [0, 1, 2]) == {1}

    def test_empty_and_single(self):
        g = Graph(3)
        assert articulation_points(g, []) == set()
        assert articulation_points(g, [1]) == set()

    @given(st.integers(0, 10_000), st.integers(2, 18), st.floats(0.05, 0.6))
    @settings(max_examples=40, deadline=None)
    def test_matches_networkx(self, seed, n, p):
        rng = np.random.default_rng(seed)
        ours = Graph(n)
        theirs = nx.Graph()
        theirs.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    ours.add_edge(i, j)
                    theirs.add_edge(i, j)
        expected = set(nx.articulation_points(theirs))
        assert articulation_points(ours, list(range(n))) == expected


class TestFailureImpacts:
    def make_problem(self):
        return make_line_instance(
            num_locations=5, users_per_location=2,
            capacities=(2, 2, 2, 2, 2),
        )

    def test_chain_deployment_middle_is_critical(self):
        problem = self.make_problem()
        dep = Deployment(placements={k: k for k in range(5)})
        impacts = {fi.uav_index: fi for fi in
                   single_failure_impacts(problem, dep)}
        # Middle UAVs split the chain; ends do not.
        assert impacts[2].splits_network
        assert not impacts[0].splits_network
        assert not impacts[4].splits_network
        # Losing the middle strands one side: 2 (failed pile) + 2 piles
        # stranded = 6 users lost; losing an end costs only its pile.
        assert impacts[2].served_lost == 6
        assert impacts[0].served_lost == 2

    def test_losses_accounting(self):
        problem = self.make_problem()
        dep = Deployment(placements={k: k for k in range(5)})
        for fi in single_failure_impacts(problem, dep):
            assert fi.served_after + fi.served_lost == 10
            assert 0 <= fi.surviving_uavs < 5

    def test_sorted_worst_first(self):
        problem = self.make_problem()
        dep = Deployment(placements={k: k for k in range(5)})
        impacts = single_failure_impacts(problem, dep)
        losses = [fi.served_lost for fi in impacts]
        assert losses == sorted(losses, reverse=True)

    def test_empty_deployment(self):
        problem = self.make_problem()
        assert single_failure_impacts(problem, Deployment.empty()) == []

    def test_real_deployment_impacts(self, small_scenario):
        result = appro_alg(small_scenario, s=2, gain_mode="fast")
        impacts = single_failure_impacts(small_scenario, result.deployment)
        assert len(impacts) == result.deployment.num_deployed
        for fi in impacts:
            assert fi.served_lost >= 0


def _brute_force_cuts(graph: Graph, nodes: list) -> set:
    """Articulation points by definition: delete each node and recount
    connected components among the survivors."""

    def components(members: set) -> int:
        count = 0
        seen: set = set()
        for start in members:
            if start in seen:
                continue
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                for w in graph.neighbours(v):
                    if w in members and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return count

    node_set = set(nodes)
    base = components(node_set)
    cuts = set()
    for v in node_set:
        if components(node_set - {v}) > base:
            cuts.add(v)
    return cuts


class TestArticulationPointsVsBruteForce:
    """Property tests: the iterative Tarjan implementation must agree with
    brute-force per-node removal on arbitrary small graphs."""

    @given(st.integers(0, 10_000), st.integers(1, 14), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed, n, p):
        rng = np.random.default_rng(seed)
        g = Graph(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    g.add_edge(i, j)
        nodes = list(range(n))
        assert articulation_points(g, nodes) == _brute_force_cuts(g, nodes)

    @given(st.integers(0, 10_000), st.integers(3, 14))
    @settings(max_examples=25, deadline=None)
    def test_random_induced_subsets(self, seed, n):
        """The induced-subgraph contract: cuts of a node subset, not of the
        whole graph."""
        rng = np.random.default_rng(seed)
        g = Graph(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    g.add_edge(i, j)
        nodes = sorted(
            int(v) for v in rng.permutation(n)[: max(1, n // 2)]
        )
        assert articulation_points(g, nodes) == _brute_force_cuts(g, nodes)

    @given(st.integers(2, 16))
    @settings(max_examples=15, deadline=None)
    def test_chains(self, n):
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        nodes = list(range(n))
        expected = set(range(1, n - 1))
        assert articulation_points(g, nodes) == expected
        assert _brute_force_cuts(g, nodes) == expected

    @given(st.integers(2, 10))
    @settings(max_examples=9, deadline=None)
    def test_cliques_have_no_cuts(self, n):
        g = Graph.from_edges(
            n, [(i, j) for i in range(n) for j in range(i + 1, n)]
        )
        nodes = list(range(n))
        assert articulation_points(g, nodes) == set()
        assert _brute_force_cuts(g, nodes) == set()
