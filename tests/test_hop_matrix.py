"""The all-sources hop matrix against one BFS per source.

``CoverageGraph.hop_matrix()`` runs one level-synchronous bitset BFS
from every location at once (:func:`repro.graphs.bfs.all_pairs_hops`).
BFS distances are unique, so it must equal the stacked ``bfs_hops`` rows
exactly — on graphs with several components and isolated nodes, and on
the degenerate ``m = 0`` and ``m = 1`` graphs — and ``hops_from`` must
return the same lists whether or not the matrix has been built.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.geometry.point import Point3D
from repro.graphs import bfs
from repro.graphs.adjacency import Graph
from repro.graphs.bfs import UNREACHABLE, all_pairs_hops, bfs_hops
from repro.network.coverage import CoverageGraph


def stacked_bfs(graph: Graph) -> np.ndarray:
    n = graph.num_nodes
    return np.array(
        [bfs_hops(graph, s) for s in range(n)], dtype=np.int16
    ).reshape(n, n)


def geometric_locations(seed: int) -> list:
    """Random points in three far-apart clusters plus isolated points:
    a random geometric graph with several components."""
    rng = np.random.default_rng(seed)
    points = []
    for cx, cy in ((0.0, 0.0), (5000.0, 0.0), (0.0, 5000.0)):
        count = int(rng.integers(5, 40))
        xy = rng.uniform(0.0, 1200.0, size=(count, 2))
        points += [(cx + x, cy + y) for x, y in xy]
    points += [(9000.0 + 2000.0 * i, 9000.0) for i in range(3)]
    order = rng.permutation(len(points))
    return [
        Point3D(float(points[i][0]), float(points[i][1]), 300.0)
        for i in order
    ]


@pytest.mark.parametrize("seed", range(12))
def test_matches_stacked_bfs_on_geometric_graphs(seed):
    locations = geometric_locations(seed)
    graph = CoverageGraph(users=[], locations=locations, uav_range_m=300.0)
    matrix = graph.hop_matrix()
    assert matrix.dtype == np.int16
    np.testing.assert_array_equal(matrix, stacked_bfs(graph.location_graph))
    assert (matrix == UNREACHABLE).any()
    degrees = [graph.location_graph.degree(v) for v in range(len(locations))]
    assert 0 in degrees


@pytest.mark.parametrize("seed", range(6))
def test_matches_stacked_bfs_on_random_edge_orders(seed):
    """Arbitrary (non-geometric) graphs with edges in random order."""
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 60))
    graph = Graph(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for i in rng.permutation(len(pairs))[: int(rng.integers(0, 2 * n))]:
        graph.add_edge(*pairs[i])
    np.testing.assert_array_equal(all_pairs_hops(graph), stacked_bfs(graph))


def test_small_gather_blocks(monkeypatch):
    """Neighbour frontiers gathered one node at a time give the same
    matrix as one block."""
    monkeypatch.setattr(bfs, "_GATHER_BYTES", 1)
    graph = CoverageGraph(
        users=[], locations=geometric_locations(5), uav_range_m=300.0
    )
    np.testing.assert_array_equal(
        graph.hop_matrix(), stacked_bfs(graph.location_graph)
    )


@pytest.mark.parametrize("m", [0, 1])
def test_degenerate_sizes(m):
    locations = [Point3D(0.0, 0.0, 300.0)][:m]
    graph = CoverageGraph(users=[], locations=locations, uav_range_m=300.0)
    matrix = graph.hop_matrix()
    assert matrix.shape == (m, m)
    np.testing.assert_array_equal(matrix, stacked_bfs(graph.location_graph))


def test_hops_from_unchanged_by_matrix():
    locations = geometric_locations(3)
    before = CoverageGraph(users=[], locations=locations, uav_range_m=300.0)
    after = CoverageGraph(users=[], locations=locations, uav_range_m=300.0)
    after.hop_matrix()
    for v in range(len(locations)):
        row = after.hops_from(v)
        assert row == before.hops_from(v)
        assert all(type(d) is int for d in row)


def test_paper_grid_no_slower_than_per_source_bfs():
    """The paper's 3 km area on a 50 m grid (m = 3600).  A full
    per-source BFS takes tens of seconds here, so its time is taken on a
    sample of sources and scaled to all of them (every source explores
    the same connected grid, so each BFS costs about the same)."""
    locations = [
        Point3D(25.0 + 50.0 * i, 25.0 + 50.0 * j, 300.0)
        for i in range(60) for j in range(60)
    ]
    graph = CoverageGraph(users=[], locations=locations, uav_range_m=100.0)
    start = time.perf_counter()
    matrix = graph.hop_matrix()
    all_sources_s = time.perf_counter() - start

    sample = np.random.default_rng(0).choice(len(locations), 60, replace=False)
    start = time.perf_counter()
    rows = [bfs_hops(graph.location_graph, int(s)) for s in sample]
    per_source_s = (time.perf_counter() - start) * len(locations) / len(sample)

    for s, row in zip(sample, rows):
        assert matrix[s].tolist() == row
    assert matrix.max() == 59
    assert all_sources_s <= per_source_s
