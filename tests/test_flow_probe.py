"""The count-only probe against the try + rollback it replaces.

:meth:`IncrementalAssignment.gain` measures an exact marginal gain without
touching the engine: the chain phase runs on local copies of the bitsets
and pushes each augmenting path's whole bottleneck at once.  On random
engine states it must return exactly what ``try_open`` + ``rollback``
returns, and what the scalar ``chain="dfs"`` reference returns, leave
every piece of engine state as it found it, raise the errors
``try_open`` raises, and count the same telemetry.

The last section pins the shared cover check: covers that are not
integer indices are rejected, and repeated indices count once.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.flow.bipartite import CellAssignment, IncrementalAssignment
from tests.test_flow_bipartite import dinic_value

# -- instances ---------------------------------------------------------------


def random_cover(rng, num_users: int) -> list:
    size = int(rng.integers(0, num_users + 1))
    return sorted(int(u) for u in rng.choice(num_users, size=size,
                                             replace=False)) if size else []


def random_stations(rng, num_users: int) -> list:
    """``[(cover, capacity)]`` with capacity 0 and empty covers likely."""
    return [(random_cover(rng, num_users), int(rng.integers(0, 6)))
            for _ in range(int(rng.integers(0, 9)))]


def chain_stations(length: int) -> list:
    """Station ``i`` covers users ``i`` and ``i + 1`` and holds one: a
    probe covering user 0 with spare capacity must walk the whole chain to
    free the last user."""
    return [([i, i + 1], 1) for i in range(length)]


def engines_for(num_users: int, stations: list) -> tuple:
    """The bitset engine and the dfs reference with ``stations`` open."""
    bfs = IncrementalAssignment(num_users)
    dfs = IncrementalAssignment(num_users, chain="dfs")
    for i, (cover, cap) in enumerate(stations):
        bfs.open(("open", i), cover, cap)
        dfs.open(("open", i), cover, cap)
    return bfs, dfs


def state(engine: IncrementalAssignment) -> tuple:
    """Everything a probe could disturb: who serves whom, the served set
    and count, every station's load, and the station table itself."""
    return (
        engine.assignment(), engine.served_bits, engine.served_count,
        [engine.load_of(name) for name in engine.stations()],
        list(engine._cover_ints), list(engine._caps), engine.stations(),
        dict(engine._slots), engine._pending, engine._journal,
    )


def tried(engine, station, cover, capacity) -> int:
    gain = engine.try_open(station, cover, capacity)
    engine.rollback()
    return gain


def assert_probe_matches(num_users: int, stations: list, probes: list):
    bfs, dfs = engines_for(num_users, stations)
    before = state(bfs)
    flow = dinic_value(num_users, stations)
    for cover, cap in probes:
        gain = bfs.gain("probe", cover, cap)
        assert state(bfs) == before
        assert gain == tried(bfs, "probe", cover, cap)
        assert gain == dfs.gain("probe", cover, cap)
        assert gain == dinic_value(num_users, stations + [(cover, cap)]) - flow
        assert state(bfs) == before


# -- probe == try + rollback -------------------------------------------------


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_probe_matches_try_open_and_dfs(seed):
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(1, 30))
    stations = random_stations(rng, num_users)
    probes = [(random_cover(rng, num_users),
               int(rng.integers(0, num_users + 2))) for _ in range(6)]
    assert_probe_matches(num_users, stations, probes)


@pytest.mark.parametrize("length", [1, 2, 7, 40])
def test_probe_walks_long_chains(length):
    stations = chain_stations(length)
    num_users = length + 1
    assert_probe_matches(num_users, stations, [
        ([0], 1),                 # one unit down the whole chain
        ([0], 5),                 # still one: the chain frees one user
        ([0, length], 2),         # the chain and the free end compete
        (list(range(num_users)), num_users),
    ])


def test_probe_corners():
    # Capacity 0, an empty cover, and a cover whose users are all held by
    # full stations that cannot pass them on.
    full = [([0, 1, 2], 3), ([3, 4], 2)]
    assert_probe_matches(5, full, [
        ([0, 1], 0), ([], 4), ([0, 1, 2, 3, 4], 5),
    ])
    # Saturation: the free covered users alone fill the capacity.
    assert_probe_matches(6, [([0, 1], 1)], [
        ([0, 1, 2, 3, 4, 5], 3), ([1, 2, 3], 2),
    ])
    # Nothing open at all.
    assert_probe_matches(4, [], [([0, 2, 3], 2), ([], 0)])


def test_probe_with_many_users_per_path():
    """Wide links: the bottleneck is pushed in bulk, and the count must
    still stop at the remaining capacity, the free users at the leaf and
    the narrowest link."""
    # A holds users 0..9 (cap 10); B covers 0..4 and users 10..19 are
    # free under B only.  A probe covering 0..9 gets min(cap, 5) through B.
    stations = [(list(range(10)), 10),
                (list(range(5)) + list(range(10, 20)), 0)]
    for cap in (1, 3, 5, 8, 12):
        assert_probe_matches(20, stations, [(list(range(10)), cap)])
    # The same with B open with room to grow.
    stations = [(list(range(10)), 10),
                (list(range(5)) + list(range(10, 13)), 8)]
    for cap in (2, 4, 9):
        assert_probe_matches(20, stations, [(list(range(10)), cap)])


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_probe_tracks_every_mutation(seed):
    """The probe keeps a per-state cache (the users of live stations).
    Random interleavings of every public mutator, each run with the cache
    warm: probes before the mutation must not leak into probes after."""
    rng = np.random.default_rng(seed)
    engine = IncrementalAssignment(int(rng.integers(2, 16)))
    forked = False
    for step in range(20):
        n = engine.num_users
        op = rng.choice(["open", "try", "fork", "unfork", "add", "remove"])
        if op == "open":
            engine.open(("st", step), random_cover(rng, n),
                        int(rng.integers(0, 4)))
        elif op == "try":
            tried(engine, ("st", step), random_cover(rng, n),
                  int(rng.integers(0, 4)))
        elif op == "fork" and not forked:
            engine.fork()
            forked = True
        elif op == "unfork" and forked:
            engine.rollback_fork()
            forked = False
        elif op == "add" and not forked:
            names = engine.stations()
            keep = rng.random(len(names)) < 0.5
            engine.add_user([s for s, k in zip(names, keep) if k])
        elif op == "remove" and not forked and n > 1:
            engine.remove_user(int(rng.integers(0, n)))
        n = engine.num_users
        probes = [(random_cover(rng, n), int(rng.integers(0, n + 2)))
                  for _ in range(4)]
        got = [engine.gain("probe", cover, cap) for cover, cap in probes]
        assert got == [tried(engine, "probe", cover, cap)
                       for cover, cap in probes]
        engine.gain("probe", *probes[0])   # leave the cache warm


def test_cell_engine_probe_is_try_and_rollback():
    engine = CellAssignment([3, 1, 2, 4])
    engine.open("A", [0, 1], 3)
    engine.open("B", [1, 2], 2)
    flows, served = engine.flows(), engine.served_count
    gain = engine.gain("C", [0, 2, 3], 6)
    assert gain == tried(engine, "C", [0, 2, 3], 6)
    assert engine.flows() == flows and engine.served_count == served


def test_lazy_gains_counts_each_probe_once():
    """``tests/test_lazy_gains.py`` bounds the lazy scans' oracle calls by
    the eager scans'; its counting engine must see every count-only
    probe, or those bounds compare zero against the eager count."""
    from repro.core.greedy import anchored_greedy
    from repro.core.segments import optimal_segments
    from tests.test_lazy_gains import INSTANCES, counting_engine

    label, problem, anchors = INSTANCES[0]
    assert label.startswith("users")
    plan = optimal_segments(problem.num_uavs, len(anchors))
    engine = counting_engine(problem.graph)
    calls: list = []
    gain = engine.gain

    def recorded(*args):
        calls.append(args)
        return gain(*args)

    engine.gain = recorded
    anchored_greedy(problem, anchors, plan, gain_mode="exact", engine=engine)
    assert engine.probes == len(calls) > 0


# -- errors and telemetry ----------------------------------------------------


def error_of(call) -> tuple:
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("chain", ["bfs", "dfs"])
def test_probe_raises_what_try_open_raises(chain):
    def engine():
        eng = IncrementalAssignment(4, chain=chain)
        eng.open("A", [0, 1], 1)
        return eng

    cases = [
        ("A", [2], 1),                    # already open
        ("B", [2], -1),                   # negative capacity
        ("B", [[0, 1], [2, 3]], 1),       # two-dimensional cover
        ("B", [1, 4], 1),                 # user out of range
        ("B", [-1], 1),                   # negative user
        ("B", [0.0, 1.0], 1),             # float indices
        ("B", np.array([True, False, True, False]), 1),  # boolean mask
    ]
    for station, cover, cap in cases:
        want = error_of(lambda: engine().try_open(station, cover, cap))
        assert error_of(lambda: engine().gain(station, cover, cap)) == want
    pending = engine()
    pending.try_open("P", [2], 1)
    want = error_of(lambda: pending.try_open("B", [3], 1))
    assert want[0] is RuntimeError
    assert error_of(lambda: pending.gain("B", [3], 1)) == want


def flow_counters(call) -> dict:
    obs.reset()
    obs.enable()
    try:
        call()
        counters = dict(obs.metrics_snapshot()["counters"])
    finally:
        obs.disable()
        obs.reset()
    return {k: v for k, v in counters.items() if k.startswith("flow.")}


def test_probe_counts_what_try_and_rollback_count():
    stations = chain_stations(6) + [([7, 8, 9], 2)]
    probes = [([0], 3), ([0, 7, 8, 9, 10], 4), ([8, 9], 2), ([], 1),
              ([10, 11], 5)]
    engine, _ = engines_for(12, stations)

    def by_probe():
        for cover, cap in probes:
            engine.gain("probe", cover, cap)

    def by_try():
        for cover, cap in probes:
            tried(engine, "probe", cover, cap)

    want = flow_counters(by_try)
    assert want["flow.chain_augmentations"] > 0
    assert flow_counters(by_probe) == want
    # Off, nothing is counted.
    obs.reset()
    by_probe()
    assert not obs.metrics_snapshot()["counters"]


# -- the shared cover check --------------------------------------------------


def test_repeated_users_count_once():
    assert IncrementalAssignment(5).gain("a", [1, 1, 1], 3) == 1
    assert IncrementalAssignment(5, chain="dfs").gain("a", [3, 1, 3], 3) == 2
    cells = CellAssignment([2, 2, 2])
    assert cells.gain("a", [1, 1], 5) == 2
    assert cells.try_open("a", [1, 1, 0], 5) == 4


def test_boolean_masks_are_rejected():
    mask = np.array([True, False, True, False, True])
    with pytest.raises(TypeError):
        IncrementalAssignment(5).gain("a", mask, 5)
    with pytest.raises(TypeError):
        IncrementalAssignment(5).try_open("a", mask, 5)
    with pytest.raises(TypeError):
        CellAssignment([2, 2, 2]).try_open(
            "a", np.array([True, False, True]), 5
        )
    with pytest.raises(TypeError):
        CellAssignment([2, 2, 2]).gain(
            "a", np.array([True, False, True]), 5
        )


def test_float_covers_are_rejected_not_truncated():
    covers = ([0.5, 1.7], np.array([1.0, 2.0]))
    for cover in covers:
        with pytest.raises(TypeError):
            IncrementalAssignment(3).gain("a", cover, 2)
        with pytest.raises(TypeError):
            IncrementalAssignment(3, chain="dfs").try_open("a", cover, 2)
        with pytest.raises(TypeError):
            CellAssignment([1, 2, 3]).try_open("a", cover, 2)
        with pytest.raises(TypeError):
            CellAssignment([1, 2, 3]).gain("a", cover, 2)


def test_int_covers_count_like_their_users():
    """An integer cover is bit ``u`` = user ``u``; it must name users
    only."""
    for chain in ("bfs", "dfs"):
        by_int = IncrementalAssignment(6, chain=chain)
        by_list = IncrementalAssignment(6, chain=chain)
        by_int.open("A", 0b000111, 2)
        by_list.open("A", [0, 1, 2], 2)
        assert by_int.gain("B", 0b001110, 3) == by_list.gain("B", [1, 2, 3], 3)
        assert by_int.gain("C", 0b110001, 5) == by_list.gain("C", [0, 4, 5], 5)
        assert state(by_int) == state(by_list)
    engine = IncrementalAssignment(3)
    for bad in (-1, 1 << 3, 0b1001):
        with pytest.raises(IndexError):
            engine.gain("a", bad, 1)
        with pytest.raises(IndexError):
            engine.try_open("a", bad, 1)


def test_empty_and_unsigned_covers_are_accepted():
    engine = IncrementalAssignment(3)
    assert engine.gain("a", [], 2) == 0
    assert engine.open("a", np.array([0, 2], dtype=np.uint8), 2) == 2
    assert CellAssignment([1, 2]).open("a", [], 1) == 0
