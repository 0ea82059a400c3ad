"""Tests for the coverage graph G = (U ∪ V, E)."""

import networkx as nx
import numpy as np
import pytest

from repro.geometry.point import Point3D
from repro.graphs.bfs import multi_source_hops
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import users_from_points
from repro.workload.scenarios import paper_scenario
from tests.reference.spatial_hash import pairwise_within


def random_coverage_graph(seed=0, n_users=60, cols=4, rows=3):
    rng = np.random.default_rng(seed)
    locations = [
        Point3D((c + 0.5) * 500.0, (r + 0.5) * 500.0, 300.0)
        for r in range(rows) for c in range(cols)
    ]
    points = rng.uniform(0, 500.0 * max(cols, rows), size=(n_users, 2))
    users = users_from_points([(float(x), float(y)) for x, y in points])
    return CoverageGraph(users=users, locations=locations, uav_range_m=600.0)


class TestConstruction:
    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            CoverageGraph(users=[], locations=[], uav_range_m=0.0)

    def test_rejects_ground_locations(self):
        with pytest.raises(ValueError, match="airborne"):
            CoverageGraph(users=[], locations=[Point3D(0, 0, 0)],
                          uav_range_m=600.0)

    def test_empty_graph(self):
        g = CoverageGraph(users=[], locations=[], uav_range_m=600.0)
        assert g.num_users == 0 and g.num_locations == 0

    def test_location_edges_match_naive(self):
        g = random_coverage_graph()
        expected = set(pairwise_within(g.locations, 600.0))
        got = {
            (u, v) for u, v, _ in g.location_graph.edges()
        }
        assert got == expected


class TestCoverableUsers:
    def test_matches_naive_filter(self):
        g = random_coverage_graph(seed=3)
        uav = UAV(capacity=10, tx_power_dbm=36.0, antenna_gain_db=3.0,
                  user_range_m=500.0)
        for v in range(g.num_locations):
            got = set(g.coverable_users(v, uav))
            expected = set()
            for u in range(g.num_users):
                dist = g.users[u].position.distance_to(g.locations[v])
                if dist <= uav.user_range_m and (
                    g.rate_bps(u, v, uav) >= g.users[u].min_rate_bps
                ):
                    expected.add(u)
            assert got == expected, f"coverage mismatch at location {v}"

    def test_rate_requirement_filters(self):
        """A sky-high min rate excludes users even in range."""
        locations = [Point3D(250.0, 250.0, 300.0)]
        users = users_from_points([(250.0, 250.0)], min_rate_bps=1e12)
        g = CoverageGraph(users=users, locations=locations, uav_range_m=600.0)
        uav = UAV(capacity=5)
        assert g.coverable_users(0, uav) == []

    def test_caching_returns_same_object(self):
        g = random_coverage_graph()
        uav = UAV(capacity=5)
        assert g.coverable_users(0, uav) is g.coverable_users(0, uav)

    def test_different_radios_different_coverage(self):
        g = random_coverage_graph(seed=5)
        small = UAV(capacity=5, user_range_m=350.0)
        large = UAV(capacity=5, user_range_m=500.0)
        for v in range(g.num_locations):
            assert set(g.coverable_users(v, small)) <= set(
                g.coverable_users(v, large)
            )

    def test_coverable_array_matches_list(self):
        g = random_coverage_graph()
        uav = UAV(capacity=5)
        for v in range(g.num_locations):
            assert list(g.coverable_array(v, uav)) == g.coverable_users(v, uav)


class TestHops:
    def test_hops_match_networkx(self):
        g = random_coverage_graph()
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_locations))
        nxg.add_edges_from((u, v) for u, v, _ in g.location_graph.edges())
        for src in range(g.num_locations):
            ours = g.hops_from(src)
            theirs = nx.single_source_shortest_path_length(nxg, src)
            for v in range(g.num_locations):
                assert ours[v] == theirs.get(v, -1)

    def test_hops_to_set(self):
        g = random_coverage_graph()
        sources = [0, g.num_locations - 1]
        multi = multi_source_hops(g.location_graph, sources)
        for v in range(g.num_locations):
            assert multi[v] == min(g.hops_from(s)[v] for s in sources)

    def test_connectivity(self):
        g = random_coverage_graph()
        assert g.locations_connected(list(range(g.num_locations)))
        assert g.locations_connected([0])
        assert not g.locations_connected([0, g.num_locations - 1]) or (
            g.hops_between(0, g.num_locations - 1) == 1
        )

    def test_reachable_from(self):
        g = random_coverage_graph()
        assert sorted(g.reachable_from(0)) == list(range(g.num_locations))


class TestScenarioIntegration:
    def test_paper_scenario_shape(self):
        p = paper_scenario(num_users=100, num_uavs=4, scale="small", seed=0)
        assert p.num_users == 100
        assert p.num_locations == 9
        assert p.num_uavs == 4
        # 1.5 km / 500 m grid at 300 m altitude: 4-neighbour lattice.
        assert p.graph.location_graph.num_edges == 12
