"""Tests for Eulerian paths over doubled spanning trees (Section III-A)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference.euler import (
    eulerian_path_by_doubling,
    is_eulerian_path,
    split_path,
)


def random_tree(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(0, i)), i) for i in range(1, n)]


def doubled_multiset(edges: list, keep: tuple) -> list:
    keep = (min(keep), max(keep))
    out = []
    for u, v in edges:
        e = (min(u, v), max(u, v))
        out.append(e)
        if e != keep:
            out.append(e)
    return out


class TestEulerianPath:
    def test_single_node(self):
        assert eulerian_path_by_doubling(1, []) == [0]

    def test_two_nodes(self):
        path = eulerian_path_by_doubling(2, [(0, 1)])
        assert path in ([0, 1], [1, 0])

    def test_paper_size_example(self):
        """K = 11 nodes: duplicating K-2 edges gives an Eulerian path with
        2K-3 = 19 edges (Fig. 2(a)-(b))."""
        edges = random_tree(42, 11)
        path = eulerian_path_by_doubling(11, edges)
        assert len(path) == 2 * 11 - 2
        assert is_eulerian_path(path, doubled_multiset(edges, edges[0]))

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            eulerian_path_by_doubling(4, [(0, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            eulerian_path_by_doubling(3, [(0, 1), (1, 0)])

    def test_keep_single_must_be_tree_edge(self):
        with pytest.raises(ValueError, match="not a tree edge"):
            eulerian_path_by_doubling(3, [(0, 1), (1, 2)], keep_single=(0, 2))

    def test_endpoints_are_kept_edge_ends(self):
        edges = [(0, 1), (1, 2), (2, 3)]
        path = eulerian_path_by_doubling(4, edges, keep_single=(1, 2))
        assert {path[0], path[-1]} == {1, 2}

    @given(st.integers(0, 10_000), st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_path_traverses_exact_multiset(self, seed, n):
        edges = random_tree(seed, n)
        path = eulerian_path_by_doubling(n, edges)
        assert len(path) == 2 * n - 2
        assert is_eulerian_path(path, doubled_multiset(edges, edges[0]))
        # Consecutive path nodes must be tree-adjacent.
        tree = nx.Graph(edges)
        for a, b in zip(path, path[1:]):
            assert tree.has_edge(a, b)

    @given(st.integers(0, 10_000), st.integers(2, 30))
    @settings(max_examples=20, deadline=None)
    def test_visits_every_node(self, seed, n):
        edges = random_tree(seed, n)
        path = eulerian_path_by_doubling(n, edges)
        assert set(path) == set(range(n))


class TestSplitPath:
    def test_paper_example_split(self):
        """2K-2 = 20 path nodes split with L = 10 into Delta = 2 segments
        (Fig. 2(c))."""
        path = list(range(20))
        segments = split_path(path, 10)
        assert len(segments) == 2
        assert all(len(seg) == 10 for seg in segments)

    def test_ragged_tail(self):
        segments = split_path(list(range(7)), 3)
        assert [len(s) for s in segments] == [3, 3, 1]

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            split_path([1, 2], 0)

    @given(st.lists(st.integers(), min_size=1, max_size=60), st.integers(1, 10))
    def test_concatenation_identity(self, path, seg_len):
        segments = split_path(path, seg_len)
        assert [x for seg in segments for x in seg] == path
        assert all(len(s) == seg_len for s in segments[:-1])
        assert 1 <= len(segments[-1]) <= seg_len
