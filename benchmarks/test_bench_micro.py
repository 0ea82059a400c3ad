"""Micro-benchmarks of the substrates (not paper figures): max-flow,
coverage-graph construction, BFS, Algorithm 1, and the incremental
assignment engine.  These use pytest-benchmark's statistical rounds, since
each operation is cheap."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assignment import max_served
from repro.core.segments import optimal_segments
from repro.flow.bipartite import IncrementalAssignment
from repro.flow.dinic import Dinic
from repro.graphs.bfs import bfs_hops


def build_random_flow(seed: int = 0, n: int = 200, arcs: int = 1200) -> Dinic:
    rng = np.random.default_rng(seed)
    d = Dinic(n)
    for _ in range(arcs):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            d.add_edge(int(u), int(v), int(rng.integers(1, 20)))
    return d


def test_dinic_maxflow(benchmark):
    def run():
        d = build_random_flow()
        return d.max_flow(0, 199)

    value = benchmark(run)
    assert value >= 0


def test_dinic_vs_networkx(benchmark):
    """Report our Dinic's runtime on a network where networkx gives the
    same answer (correctness asserted once, speed measured)."""
    import networkx as nx

    rng = np.random.default_rng(1)
    arcs = [
        (int(u), int(v), int(c))
        for u, v, c in zip(
            rng.integers(0, 120, 800),
            rng.integers(0, 120, 800),
            rng.integers(1, 15, 800),
        )
        if u != v
    ]
    g = nx.DiGraph()
    for u, v, c in arcs:
        if g.has_edge(u, v):
            g[u][v]["capacity"] += c
        else:
            g.add_edge(u, v, capacity=c)
    g.add_nodes_from([0, 119])
    expected = nx.maximum_flow_value(g, 0, 119)

    def run():
        d = Dinic(120)
        for u, v, c in arcs:
            d.add_edge(u, v, c)
        return d.max_flow(0, 119)

    assert run() == expected
    benchmark(run)


def test_coverage_graph_construction(benchmark, scenario_cache):
    from repro.network.coverage import CoverageGraph

    base = scenario_cache(2000, 10)

    def run():
        return CoverageGraph(
            users=base.graph.users,
            locations=base.graph.locations,
            uav_range_m=600.0,
        )

    graph = benchmark(run)
    assert graph.num_users == 2000


def test_coverage_sets_warm(benchmark, scenario_cache):
    problem = scenario_cache(2000, 10)
    uav = problem.fleet[0]

    def run():
        total = 0
        for v in range(problem.num_locations):
            total += len(problem.graph.coverable_users(v, uav))
        return total

    assert benchmark(run) > 0


def test_bfs_hops_location_graph(benchmark, scenario_cache):
    problem = scenario_cache(1000, 10)
    graph = problem.graph.location_graph
    result = benchmark(lambda: bfs_hops(graph, 0))
    assert max(result) >= 0


def test_algorithm1_segments(benchmark):
    plan = benchmark(lambda: optimal_segments(200, 3))
    assert plan.relay_bound <= 200


def test_incremental_assignment_opens(benchmark, scenario_cache):
    problem = scenario_cache(2000, 10)
    uav = problem.fleet[0]
    covers = [
        problem.graph.coverable_users(v, uav)
        for v in range(problem.num_locations)
    ]

    def run():
        eng = IncrementalAssignment(problem.num_users)
        for v in range(problem.num_locations):
            eng.open(v, covers[v], 150)
        return eng.served_count

    assert benchmark(run) > 0


def test_solver_context_build(benchmark, scenario_cache, perf_trajectory):
    """SolverContext precomputation (hop matrix + coverage bitsets): the
    one-off cost the engine pays before any subset is evaluated."""
    from repro.core.context import SolverContext

    problem = scenario_cache(2000, 10)
    SolverContext.from_problem(problem)  # warm the graph caches once

    context = benchmark(lambda: SolverContext.from_problem(problem))
    assert context.num_locations == problem.num_locations
    perf_trajectory.record(
        "micro:context-build", "context-build", 0,
        benchmark.stats.stats.mean, workers=1,
    )


def test_gain_matrix_kernel(benchmark, scenario_cache, perf_trajectory):
    """The batched greedy gain kernel (`direct_gain_bounds`): one masked
    popcount ranking every candidate location against a half-loaded
    assignment.  Recorded as ``gain_matrix_ms``."""
    from repro.core.context import SolverContext

    problem = scenario_cache(2000, 10)
    context = SolverContext.from_problem(problem)
    uav = problem.fleet[0]
    eng = IncrementalAssignment(problem.num_users)
    for v in range(0, problem.num_locations, 2):
        eng.open(v, problem.graph.coverable_users(v, uav), 120)
    rows = context.coverage_rows(0)

    gains = benchmark(lambda: eng.direct_gain_bounds(rows, uav.capacity))
    scalar = [
        min(uav.capacity,
            (problem.graph.coverable_int(v, uav) & ~eng.served_bits)
            .bit_count())
        for v in range(problem.num_locations)
    ]
    assert gains.tolist() == scalar
    perf_trajectory.record(
        "micro:kernels", "gain-matrix", 0, benchmark.stats.stats.mean,
        gain_matrix_ms=round(benchmark.stats.stats.mean * 1000.0, 3),
    )


def test_exact_assignment_dinic(benchmark, scenario_cache):
    problem = scenario_cache(2000, 10)
    placements = {k: k for k in range(problem.num_uavs)}
    value = benchmark.pedantic(
        lambda: max_served(problem.graph, problem.fleet, placements),
        rounds=3,
        iterations=1,
    )
    assert value >= 0
