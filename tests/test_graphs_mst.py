"""The heap Prim reference (tests/reference/mst.py) against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.adjacency import Graph
from tests.reference.mst import minimum_spanning_tree, tree_weight


class TestMst:
    def test_single_node(self):
        assert minimum_spanning_tree(Graph(1)) == []

    def test_empty_graph(self):
        assert minimum_spanning_tree(Graph(0)) == []

    def test_triangle(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 2.0)
        g.add_edge(0, 2, 3.0)
        edges = minimum_spanning_tree(g)
        assert tree_weight(edges) == 3.0
        assert len(edges) == 2

    def test_disconnected_raises(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError, match="disconnected"):
            minimum_spanning_tree(g)

    @given(st.integers(0, 10_000), st.integers(2, 20))
    @settings(max_examples=40, deadline=None)
    def test_weight_matches_networkx(self, seed, n):
        rng = np.random.default_rng(seed)
        ours = Graph(n)
        theirs = nx.Graph()
        theirs.add_nodes_from(range(n))
        # Random connected graph: random spanning chain + extra edges.
        perm = rng.permutation(n)
        for a, b in zip(perm, perm[1:]):
            w = float(rng.integers(1, 50))
            ours.add_edge(int(a), int(b), w)
            theirs.add_edge(int(a), int(b), weight=w)
        for _ in range(n):
            a, b = rng.integers(0, n, size=2)
            if a != b and not ours.has_edge(int(a), int(b)):
                w = float(rng.integers(1, 50))
                ours.add_edge(int(a), int(b), w)
                theirs.add_edge(int(a), int(b), weight=w)
        edges = minimum_spanning_tree(ours)
        assert len(edges) == n - 1
        expected = nx.minimum_spanning_tree(theirs).size(weight="weight")
        assert tree_weight(edges) == pytest.approx(expected)

    def test_result_spans_and_is_acyclic(self):
        rng = np.random.default_rng(5)
        n = 15
        g = Graph(n)
        for i in range(n - 1):
            g.add_edge(i, i + 1, float(rng.integers(1, 20)))
        for _ in range(20):
            a, b = rng.integers(0, n, size=2)
            if a != b and not g.has_edge(int(a), int(b)):
                g.add_edge(int(a), int(b), float(rng.integers(1, 20)))
        edges = minimum_spanning_tree(g)
        tree = nx.Graph([(u, v) for u, v, _ in edges])
        assert nx.is_tree(tree)
        assert tree.number_of_nodes() == n
