"""The array-built location graph against the spatial-hash loop it
replaced, and the memoised Steiner paths against fresh BFS.

``CoverageGraph._build_location_graph`` finds the location pairs within
``uav_range_m`` with one blocked numpy pass and fills the graph through
:meth:`Graph.from_arrays`.  BFS breaks ties by adjacency order, so the
oracle below -- the earlier per-location ``SpatialHash`` query plus
``Point3D.distance_to`` and one ``add_edge`` per pair, verbatim -- must
give the same adjacency lists, in the same order, and the same edge
(weight) order on every instance: several altitude layers, pairs exactly
at the range on the ground and in 3-D, coordinates on and around bucket
edges, negative coordinates, duplicate points and zero or one location.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.point import Point3D
from repro.graphs.adjacency import Graph
from repro.graphs.bfs import shortest_hop_path
from repro.graphs.steiner import steiner_connect
from repro.network.coverage import CoverageGraph
from repro.network.users import User, UserTable
from tests.reference.spatial_hash import SpatialHash


def reference_location_graph(locations: list, uav_range_m: float) -> Graph:
    """The spatial-hash location graph, verbatim."""
    graph = Graph(len(locations))
    if not locations:
        return graph
    loc_hash = SpatialHash(
        [p.ground() for p in locations], cell_size=uav_range_m
    )
    for j, loc in enumerate(locations):
        for k in loc_hash.query_disc(loc.ground(), uav_range_m):
            if k > j and locations[j].distance_to(locations[k]) <= uav_range_m:
                graph.add_edge(j, k)
    return graph


USERS = [User(Point3D(10.0, 20.0, 0.0), 1.0e6)]


def build(locations: list, uav_range_m: float) -> Graph:
    return CoverageGraph(USERS, locations, uav_range_m).location_graph


def assert_same_graph(locations: list, uav_range_m: float) -> Graph:
    got = build(locations, uav_range_m)
    want = reference_location_graph(locations, uav_range_m)
    assert got._adj == want._adj
    assert got.edges() == want.edges()
    assert got.num_edges == want.num_edges
    return got


def random_layers(seed: int, m: int, side: float = 4000.0) -> list:
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-side / 2, side, size=(m, 2))
    z = rng.choice([120.0, 200.0, 300.0, 450.0], size=m)
    return [Point3D(float(x), float(y), float(h))
            for (x, y), h in zip(xy, z)]


@pytest.mark.parametrize("seed", range(8))
def test_random_multi_layer_sets(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(2, 420))
    assert_same_graph(random_layers(seed, m), float(rng.uniform(150.0, 900.0)))


@pytest.mark.parametrize("uav_range_m", [300.0, 500.0, 600.0, 750.0])
def test_grid_layers_with_pairs_exactly_at_range(uav_range_m):
    """A 300 m grid on three layers: ground pairs at exactly 300, 600 m,
    and 3-D pairs at exactly 500 m (300-400-500 between layers 400 m
    apart)."""
    locations = [
        Point3D(150.0 + 300.0 * i, 150.0 + 300.0 * j, h)
        for h in (100.0, 200.0, 500.0) for j in range(8) for i in range(8)
    ]
    got = assert_same_graph(locations, uav_range_m)
    assert got.num_edges > 0


def test_three_d_pairs_at_exactly_range():
    """Pairs whose 3-D distance is exactly the range while their ground
    distance is well inside it (3-4-5 and 5-12-13 triangles)."""
    locations = [
        Point3D(0.0, 0.0, 100.0), Point3D(300.0, 0.0, 500.0),
        Point3D(0.0, -300.0, 500.0), Point3D(-120.0, 0.0, 600.0),
        Point3D(500.0, 0.0, 100.0), Point3D(0.0, 500.0, 100.0),
        Point3D(0.0, 0.0, 600.0),
    ]
    got = assert_same_graph(locations, 500.0)
    assert got.has_edge(0, 1) and got.has_edge(0, 2) and got.has_edge(0, 4)
    assert got.has_edge(0, 6) and not got.has_edge(4, 5)


def test_bucket_edges_and_negative_coordinates():
    """Points on and one ulp either side of bucket boundaries (multiples
    of the range), around the origin, where ``floor`` of a negative
    coordinate picks the bucket below."""
    r = 250.0
    base = [-2 * r, -r, -0.0, 0.0, r, 2 * r, 3 * r]
    coords = sorted({v2 for v in base
                     for v2 in (v, np.nextafter(v, -np.inf),
                                np.nextafter(v, np.inf))})
    rng = np.random.default_rng(5)
    locations = []
    for x in coords:
        for y in rng.choice(coords, size=4, replace=False):
            locations.append(Point3D(float(x), float(y), 300.0))
    assert_same_graph(locations, r)


def test_duplicate_points():
    locations = random_layers(9, 40)
    locations = locations + locations[:15] + [locations[3]] * 3
    got = assert_same_graph(locations, 700.0)
    assert got.has_edge(3, 40 + 3)


def test_pairs_where_pow_and_square_disagree():
    """``Point3D.distance_to`` squares with the C library's ``pow``,
    which can round differently from a product.  Pairs whose two
    distances differ, with the range set to exactly the method's value
    (or the product's), are decided as the method decides."""
    rng = np.random.default_rng(17)
    dx = rng.uniform(100.0, 900.0, size=20_000)
    dz = rng.uniform(50.0, 400.0, size=20_000)
    lower = Point3D(0.0, 0.0, 100.0)
    uppers = [Point3D(float(x), 0.0, float(100.0 + z)) for x, z in zip(dx, dz)]
    exact = np.array([lower.distance_to(p) for p in uppers])
    ddz = np.array([p.z for p in uppers]) - 100.0
    product = np.sqrt(dx * dx + 0.0 * 0.0 + ddz * ddz)
    above = np.flatnonzero(product > exact)
    below = np.flatnonzero(product < exact)
    if not (above.size and below.size):
        pytest.skip("this C library's pow squares like a product")
    for i, uav_range_m, edge in ((above[0], exact[above[0]], True),
                                 (below[0], product[below[0]], False)):
        got = assert_same_graph([lower, uppers[i]], float(uav_range_m))
        assert got.has_edge(0, 1) is edge


@pytest.mark.parametrize("m", [0, 1, 2])
def test_tiny_sets(m):
    locations = [Point3D(0.0, 0.0, 300.0), Point3D(100.0, 0.0, 300.0)][:m]
    got = assert_same_graph(locations, 500.0)
    assert got.num_nodes == m


def test_blocks_smaller_than_the_set(monkeypatch):
    """Several row blocks (a tiny block budget) give the same graph."""
    monkeypatch.setattr(CoverageGraph, "_GRAPH_PAIRS", 64)
    assert_same_graph(random_layers(3, 150), 800.0)


# -- the bulk constructor ------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_from_arrays_equals_repeated_add_edge(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs)))]
    edges = [pairs[i][::-1] if rng.random() < 0.5 else pairs[i]
             for i in chosen]
    weights = rng.integers(1, 9, size=len(edges)).tolist()
    want = Graph(n)
    for (u, v), w in zip(edges, weights):
        want.add_edge(u, v, w)
    us, vs = zip(*edges)
    got = Graph.from_arrays(n, us, vs, weights)
    assert got._adj == want._adj
    assert list(got._weights.items()) == list(want._weights.items())
    assert got.num_edges == want.num_edges
    scalar = Graph.from_arrays(n, np.array(us), np.array(vs))
    assert all(w == 1.0 for _, _, w in scalar.edges())


def test_from_arrays_rejects_what_add_edge_rejects():
    with pytest.raises(IndexError):
        Graph.from_arrays(3, [0], [3])
    with pytest.raises(IndexError):
        Graph.from_arrays(3, [-1], [2])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_arrays(3, [0, 1], [1, 1])
    with pytest.raises(ValueError, match="more than once"):
        Graph.from_arrays(3, [0, 1], [1, 0])
    with pytest.raises(ValueError):
        Graph.from_arrays(3, [0, 1], [1, 2], [1.0])
    assert Graph.from_arrays(4, [], []).num_edges == 0


# -- memoised Steiner paths ----------------------------------------------------

def test_memoised_paths_equal_fresh_bfs_across_clones():
    """``connect_terminals`` on ``with_users`` clones shares one path
    memo with the original graph; every memoised path equals a fresh BFS
    on an unmemoised copy, and whole results equal the unmemoised
    Steiner connection."""
    rng = np.random.default_rng(21)
    locations = random_layers(21, 160, side=2500.0)
    users = UserTable(rng.uniform(0.0, 2500.0, size=(50, 2)),
                      np.full(50, 1.0e6))
    graph = CoverageGraph(users, locations, 650.0)
    plain = Graph.from_edges(
        graph.num_locations, graph.location_graph.edges(), weighted=True
    )
    component = graph.reachable_from(0)
    clones = [graph] + [
        graph.with_users(UserTable(rng.uniform(0.0, 2500.0, size=(30, 2)),
                                   np.full(30, 2.0e6)))
        for _ in range(3)
    ]
    for clone in clones:
        assert clone.location_graph.path_memo is graph.location_graph.path_memo
    for trial in range(40):
        clone = clones[trial % len(clones)]
        size = int(rng.integers(2, 7))
        terminals = rng.choice(component, size=size, replace=False).tolist()
        nodes, tree = clone.connect_terminals(terminals)
        want_nodes, want_tree = steiner_connect(plain, terminals)
        assert (nodes, tree) == (want_nodes, want_tree)
        for u, v, path in tree:
            assert path == shortest_hop_path(plain, u, v)
    memo = graph.location_graph.path_memo
    assert memo
    for (u, v), path in memo.items():
        assert path == shortest_hop_path(plain, u, v)


def test_add_edge_clears_the_path_memo():
    graph = Graph.from_arrays(4, [0, 1, 2], [1, 2, 3])
    steiner_connect(graph, [0, 3])
    assert graph.path_memo == {(0, 3): [0, 1, 2, 3]}
    graph.add_edge(0, 3)
    assert graph.path_memo == {}
    assert steiner_connect(graph, [0, 3])[1] == [(0, 3, [0, 3])]


# -- carved and shared location graphs ----------------------------------------

def assert_graph_equals_build(graph: Graph, locations: list,
                              uav_range_m: float) -> None:
    want = build(locations, uav_range_m)
    assert graph.num_nodes == want.num_nodes
    assert graph._adj == want._adj
    assert graph.edges() == want.edges()
    assert graph.num_edges == want.num_edges


@pytest.mark.parametrize("overlap_m", [0.0, 300.0])
@pytest.mark.parametrize("grid", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("aggregate", [False, True])
def test_carved_tile_graphs_equal_their_own_build(aggregate, grid, overlap_m):
    """Every tile's location graph -- the induced subgraph of the global
    one -- equals a fresh build over the tile's locations, neighbour
    lists in order; on several altitude layers too."""
    from repro.scenario.spec import ScenarioSpec
    from repro.scenario.tiling import carve_tiles

    spec = ScenarioSpec(
        name="carve", scale="bench", num_users=1500, num_uavs=12, seed=3,
        altitude_layers_m=(150.0, 300.0),
        aggregation="cells" if aggregate else "users",
        cell_size_m=150.0 if aggregate else None,
    )
    problem = spec.build()
    solved = 0
    for tile in carve_tiles(problem, grid, overlap_m):
        if tile.problem is None:
            continue
        solved += 1
        graph = tile.problem.graph
        assert graph.locations == [problem.graph.locations[j]
                                   for j in tile.location_map]
        assert_graph_equals_build(graph.location_graph, graph.locations,
                                  graph.uav_range_m)
    assert solved == grid[0] * grid[1]


@pytest.mark.parametrize("cell_size_m", [None, 150.0])
def test_cell_graph_shares_the_user_graphs_location_graph(cell_size_m):
    from repro.workload.aggregate import CellCoverageGraph, aggregate_problem
    from repro.workload.scenarios import paper_scenario

    problem = paper_scenario(num_users=800, num_uavs=6, scale="bench",
                             seed=4)
    graph = aggregate_problem(problem, cell_size_m).graph
    assert graph.location_graph is problem.graph.location_graph
    own = CellCoverageGraph(
        cells=graph.cell_table, locations=graph.locations,
        uav_range_m=graph.uav_range_m, channel=graph.channel,
        bandwidth_hz=graph.bandwidth_hz,
    )
    assert own.location_graph._adj == graph.location_graph._adj
    assert own.location_graph.edges() == graph.location_graph.edges()
    np.testing.assert_array_equal(own.hop_matrix(), graph.hop_matrix())


@pytest.mark.parametrize("seed", range(4))
def test_induced_equals_the_add_edge_subgraph(seed):
    """``Graph.induced`` against ``add_edge`` over the kept edges in
    their order."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.permutation(len(pairs))[:int(rng.integers(1, len(pairs)))]
    graph = Graph(n)
    for i in chosen:
        u, v = pairs[i]
        graph.add_edge(*((v, u) if rng.random() < 0.5 else (u, v)),
                       int(rng.integers(1, 9)))
    nodes = np.flatnonzero(rng.random(n) < 0.6)
    relabel = {int(j): i for i, j in enumerate(nodes)}
    want = Graph(len(nodes))
    for (u, v), w in graph._weights.items():
        if u in relabel and v in relabel:
            want.add_edge(relabel[u], relabel[v], w)
    got = graph.induced(nodes)
    assert got._adj == want._adj
    assert list(got._weights.items()) == list(want._weights.items())
    assert got.num_edges == want.num_edges
    with pytest.raises(ValueError, match="ascending"):
        graph.induced(nodes[::-1] if len(nodes) > 1 else [n])
