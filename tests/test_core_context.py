"""SolverContext: the precomputed arrays must agree exactly with the
graph's scalar lookups, survive pickling, warm worker caches faithfully,
and the vectorized subset operations must match their scalar references."""

from __future__ import annotations

import pickle
from itertools import combinations

import numpy as np
import pytest

from repro.core.approx import appro_alg
from repro.core.context import SolverContext, prunable_mask
from repro.graphs.bfs import bfs_hops, multi_source_hops
from repro.network.coverage import CoverageGraph
from repro.util.bits import unpack_indices
from repro.workload.scenarios import paper_scenario
from tests.reference.subsets import prunable


@pytest.fixture(scope="module")
def problem():
    return paper_scenario(num_users=150, num_uavs=5, scale="small", seed=11)


@pytest.fixture(scope="module")
def context(problem):
    return SolverContext.from_problem(problem)


def test_hop_matrix_matches_bfs(problem, context):
    graph = problem.graph
    for v in range(problem.num_locations):
        assert context.hop_matrix[v].tolist() == bfs_hops(
            graph.location_graph, v
        )


def test_hops_to_set_matches_graph(problem, context):
    graph = problem.graph
    for sources in ([0], [1, 4], list(range(problem.num_locations))):
        assert context.hops_to_set(sources) == multi_source_hops(
            graph.location_graph, sources
        )


def test_coverage_counts_match_cover_lists(problem, context):
    graph = problem.graph
    for k, uav in enumerate(problem.fleet):
        for v in range(problem.num_locations):
            users = graph.coverable_users(v, uav)
            assert context.counts_for_uav(k)[v] == len(users)
            row = context.coverage_rows(k)[v]
            assert unpack_indices(row, problem.num_users) == users


def test_pickle_roundtrip(context):
    clone = pickle.loads(pickle.dumps(context))
    assert np.array_equal(clone.hop_matrix, context.hop_matrix)
    assert np.array_equal(clone.coverage_bits, context.coverage_bits)
    assert clone.radio_keys == context.radio_keys
    assert clone.capacities == context.capacities
    assert clone.num_users == context.num_users


def test_install_into_warms_cold_graph(problem, context):
    graph = problem.graph
    cold = CoverageGraph(
        users=graph.users,
        locations=graph.locations,
        uav_range_m=graph.uav_range_m,
        channel=graph.channel,
    )
    context.install_into(cold)
    for v in range(problem.num_locations):
        assert cold.hops_from(v) == graph.hops_from(v)
        for uav in problem.fleet:
            assert cold.coverable_users(v, uav) == graph.coverable_users(
                v, uav
            )


def test_matches_rejects_other_shapes(problem, context):
    assert context.matches(problem)
    other = paper_scenario(num_users=90, num_uavs=4, scale="small", seed=2)
    assert not context.matches(other)
    with pytest.raises(ValueError, match="context"):
        appro_alg(other, s=2, context=context)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_prunable_mask_matches_scalar_reference(problem, context, s):
    subsets = np.array(
        list(combinations(range(problem.num_locations), s)), dtype=np.int32
    )
    mask = prunable_mask(context, subsets, problem.num_uavs)
    for row, flag in zip(subsets, mask):
        assert bool(flag) == prunable(problem, tuple(int(v) for v in row))
