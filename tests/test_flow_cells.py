"""Differential tests for the capacitated demand-cell flow engine.

:class:`repro.flow.bipartite.CellAssignment` claims that after every
``open`` the maintained cell->station flow is an exact maximum.  The
reference here is an independent from-scratch :class:`repro.flow.dinic.Dinic`
solve of the same network (source -(demand)-> cell -> station
-(capacity)-> sink), checked after *every* station open on seeded random
instances.  The journal semantics (``try_open``/``rollback``, warm-start
forks) are exercised against snapshot equality, and
:func:`repro.flow.bipartite.new_engine_for` must dispatch singleton-cell
graphs back to the bitset user engine — the dispatch half of the
bit-identity guarantee.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow.bipartite import (
    CellAssignment,
    IncrementalAssignment,
    new_engine_for,
)
from repro.flow.dinic import Dinic
from repro.workload.aggregate import aggregate_problem
from repro.workload.scenarios import paper_scenario
from tests.reference.subsets import direct_gain_bound


def _reference_max_flow(demands, stations) -> int:
    """From-scratch Dinic max flow over the full cell-arc network.

    ``stations`` is a list of (covered_cells, capacity) pairs.
    """
    n = len(demands)
    m = len(stations)
    source, sink = n + m, n + m + 1
    net = Dinic(n + m + 2)
    for c, demand in enumerate(demands):
        net.add_edge(source, c, int(demand))
    for j, (cover, capacity) in enumerate(stations):
        for c in cover:
            net.add_edge(int(c), n + j, int(demands[int(c)]))
        net.add_edge(n + j, sink, int(capacity))
    return net.max_flow(source, sink)


def _random_instance(rng):
    n = int(rng.integers(3, 12))
    demands = rng.integers(1, 6, size=n)
    num_stations = int(rng.integers(1, 7))
    stations = []
    for _ in range(num_stations):
        size = int(rng.integers(0, n + 1))
        cover = np.sort(rng.choice(n, size=size, replace=False))
        capacity = int(rng.integers(0, 15))
        stations.append((cover, capacity))
    return demands, stations


@pytest.mark.parametrize("seed", range(40))
def test_incremental_flow_matches_dinic(seed):
    rng = np.random.default_rng(seed)
    demands, stations = _random_instance(rng)
    engine = CellAssignment(demands)
    total = 0
    for j, (cover, capacity) in enumerate(stations):
        gain = engine.open(f"s{j}", cover, capacity)
        assert gain >= 0
        total += gain
        reference = _reference_max_flow(demands, stations[: j + 1])
        assert engine.served_count == reference, (
            f"incremental flow {engine.served_count} != Dinic {reference} "
            f"after station {j} (seed {seed})"
        )
    assert engine.served_count == total


@pytest.mark.parametrize("seed", range(10))
def test_flows_respect_demands_and_capacities(seed):
    rng = np.random.default_rng(100 + seed)
    demands, stations = _random_instance(rng)
    engine = CellAssignment(demands)
    for j, (cover, capacity) in enumerate(stations):
        engine.open(f"s{j}", cover, capacity)
    flows = engine.flows()
    per_cell = np.zeros(len(demands), dtype=np.int64)
    for j, (cover, capacity) in enumerate(stations):
        station_flow = flows[f"s{j}"]
        assert sum(station_flow.values()) <= capacity
        allowed = set(int(c) for c in cover)
        for c, units in station_flow.items():
            assert units >= 1
            assert c in allowed
            per_cell[c] += units
    assert (per_cell <= demands).all()
    assert int(per_cell.sum()) == engine.served_count


def test_try_open_rollback_restores_state():
    rng = np.random.default_rng(7)
    demands, stations = _random_instance(rng)
    engine = CellAssignment(demands)
    for j, (cover, capacity) in enumerate(stations[:-1]):
        engine.open(f"s{j}", cover, capacity)
    before = (engine.served_count, engine.flows(), engine.stations())
    cover, capacity = stations[-1]
    engine.try_open("probe", cover, capacity)
    engine.rollback()
    assert (engine.served_count, engine.flows(), engine.stations()) == before
    # The rolled-back station can be re-opened with the same result.
    gain = engine.open("probe", cover, capacity)
    reference = _reference_max_flow(demands, stations)
    assert engine.served_count == before[0] + gain == reference


def test_fork_rollback_and_release():
    demands = [3, 2, 4]
    engine = CellAssignment(demands)
    engine.open("base", [0, 1], 4)
    base_state = (engine.served_count, engine.flows())
    engine.fork()
    engine.open("fork-a", [1, 2], 5)
    assert engine.served_count > base_state[0]
    engine.rollback_fork()
    assert (engine.served_count, engine.flows()) == base_state
    engine.fork()
    engine.open("fork-b", [2], 2)
    kept = (engine.served_count, engine.flows())
    engine.release_fork()
    assert (engine.served_count, engine.flows()) == kept
    with pytest.raises(RuntimeError):
        engine.rollback_fork()


def test_pending_station_guards():
    engine = CellAssignment([2, 2])
    engine.try_open("a", [0], 1)
    with pytest.raises(RuntimeError):
        engine.try_open("b", [1], 1)
    with pytest.raises(RuntimeError):
        engine.fork()
    engine.commit()
    with pytest.raises(ValueError):
        engine.try_open("a", [1], 1)  # duplicate name
    with pytest.raises(IndexError):
        engine.try_open("c", [5], 1)  # cell out of range


def test_direct_gain_bound_upper_bounds_gain():
    rng = np.random.default_rng(21)
    demands, stations = _random_instance(rng)
    engine = CellAssignment(demands)
    for j, (cover, capacity) in enumerate(stations):
        bound = direct_gain_bound(engine, cover, capacity)
        gain = engine.open(f"s{j}", cover, capacity)
        # The direct phase alone drains exactly the bound; augmentation
        # can only add, and capacity caps everything.
        assert bound <= gain <= capacity


def test_rejects_invalid_demands():
    with pytest.raises(ValueError):
        CellAssignment([1, 0, 2])
    with pytest.raises(ValueError):
        CellAssignment(np.zeros((2, 2), dtype=np.int64))


class TestEngineDispatch:
    def test_per_user_graph_gets_bitset_engine(self):
        problem = paper_scenario(num_users=30, num_uavs=2, scale="small",
                                 seed=1)
        engine = new_engine_for(problem.graph)
        assert isinstance(engine, IncrementalAssignment)

    def test_singleton_cells_get_bitset_engine(self):
        problem = paper_scenario(num_users=30, num_uavs=2, scale="small",
                                 seed=1)
        cell_problem = aggregate_problem(problem)  # singletons
        engine = new_engine_for(cell_problem.graph)
        assert isinstance(engine, IncrementalAssignment)
        assert engine.num_users == 30

    def test_coarse_cells_get_cell_engine(self):
        problem = paper_scenario(num_users=200, num_uavs=3, scale="small",
                                 seed=2)
        cell_problem = aggregate_problem(problem, 300.0)
        demands = cell_problem.graph.cell_demands
        assert int(demands.max()) > 1  # the aggregation actually merged
        engine = new_engine_for(cell_problem.graph)
        assert isinstance(engine, CellAssignment)
        assert engine.num_users == demands.size
