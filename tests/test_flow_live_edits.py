"""Live user edits of the incremental assignment engine.

``IncrementalAssignment.add_user`` / ``remove_user`` keep one maximum
assignment while users arrive and depart, with at most one
alternating-path search per edit.  Random edit sequences are checked
against an independent Dinic solution of the edited instance after every
edit, and two targeted cases pin the searches that only saturation
reaches: a departure whose replacement comes through a two-hop path, and
an arrival whose covering stations are all full.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.flow.bipartite import IncrementalAssignment
from tests.test_flow_bipartite import dinic_value


@pytest.fixture
def counters():
    obs.reset()
    obs.enable()
    yield lambda: obs.metrics_snapshot().get("counters", {})
    obs.disable()
    obs.reset()


def assert_valid_maximum(engine, covers: list, caps: list) -> None:
    """The engine's assignment is feasible, consistent with its bitsets,
    and as large as Dinic's on the same instance (``covers`` and ``caps``
    are aligned with ``engine.stations()``)."""
    n = engine.num_users
    stations = [(sorted(c), cap) for c, cap in zip(covers, caps)]
    covers = dict(zip(engine.stations(), covers))
    caps = dict(zip(engine.stations(), caps))
    assert engine.served_count == dinic_value(n, stations)
    assignment = engine.assignment()
    served = set()
    for slot, users in assignment.items():
        assert len(users) <= caps[slot]
        assert set(users) <= covers[slot]
        assert not served & set(users)
        served |= set(users)
        assert engine.load_of(slot) == len(users)
    assert len(served) == engine.served_count
    assert engine.served_bits == sum(1 << u for u in served)
    assert [engine.station_of(u) for u in range(n)] == [
        next((s for s, users in assignment.items() if u in users), None)
        for u in range(n)
    ]


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_random_edits_match_dinic(seed):
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(0, 16))
    num_stations = int(rng.integers(1, 6))
    covers = [
        set(int(u) for u in rng.choice(
            num_users, size=int(rng.integers(0, num_users + 1)),
            replace=False,
        )) if num_users else set()
        for _ in range(num_stations)
    ]
    caps = [int(rng.integers(0, 5)) for _ in range(num_stations)]
    engine = IncrementalAssignment(num_users, chain="bfs")
    for slot in range(num_stations):
        engine.open(slot, sorted(covers[slot]), caps[slot])
    assert_valid_maximum(engine, covers, caps)

    for _ in range(int(rng.integers(1, 25))):
        n = engine.num_users
        if n and rng.random() < 0.45:
            user = int(rng.integers(n))
            engine.remove_user(user)
            covers = [
                {v - (v > user) for v in c if v != user} for c in covers
            ]
        else:
            chosen = [
                slot for slot in range(num_stations) if rng.random() < 0.5
            ]
            before = engine.served_count
            served = engine.add_user(chosen)
            for slot in chosen:
                covers[slot].add(n)
            assert served == (engine.served_count == before + 1)
            assert served == (engine.station_of(n) is not None)
        assert_valid_maximum(engine, covers, caps)


def test_departure_replacement_through_two_hops(counters):
    """S (cap 1) serves user 0 and also covers user 1; T (cap 1) serves
    user 1 and also covers the free user 2.  When user 0 leaves, the
    only replacement is S <- 1 <- T <- 2: a two-hop alternating path."""
    engine = IncrementalAssignment(3)
    engine.open("S", [0, 1], 1)
    engine.open("T", [1, 2], 1)
    assert engine.assignment() == {"S": [0], "T": [1]}
    assert engine.remove_user(0) is True
    # Users 1 and 2 are now 0 and 1: 0 moved from T to S, 1 joined T.
    assert engine.assignment() == {"S": [0], "T": [1]}
    assert engine.served_count == 2
    assert_valid_maximum(engine, [{0}, {0, 1}], [1, 1])
    seen = counters()
    assert seen["flow.departure_searches"] == 1
    assert seen["flow.chain_augmentations"] == 1


def test_arrival_with_every_covering_station_full(counters):
    """The arrival is covered only by the full station A; A's user can
    move to B, which has spare capacity."""
    engine = IncrementalAssignment(2)
    engine.open("A", [0], 1)
    engine.open("B", [0, 1], 2)
    assert engine.assignment() == {"A": [0], "B": [1]}
    assert engine.add_user(["A"]) is True
    assert engine.assignment() == {"A": [2], "B": [0, 1]}
    assert_valid_maximum(engine, [{0, 2}, {0, 1}], [1, 2])
    # A second arrival covered only by A finds no path: A's user 2 is
    # covered by A alone.
    assert engine.add_user(["A"]) is False
    assert engine.served_count == 3
    seen = counters()
    assert seen["flow.arrival_searches"] == 2
    assert seen["flow.chain_augmentations"] == 1


def test_arrival_and_departure_without_stations():
    engine = IncrementalAssignment(0)
    assert engine.add_user([]) is False
    engine.open("A", [0], 1)
    assert engine.add_user(["A"]) is False      # A already full
    assert engine.remove_user(1) is False       # user 1 was unserved
    assert engine.remove_user(0) is False       # nobody left to take over
    assert engine.num_users == 0
    assert engine.served_count == 0
    with pytest.raises(IndexError):
        engine.remove_user(0)


def test_edits_raise_while_pending_forked_or_dfs():
    engine = IncrementalAssignment(3)
    engine.try_open("A", [0, 1], 1)
    with pytest.raises(RuntimeError, match="pending"):
        engine.add_user(["A"])
    with pytest.raises(RuntimeError, match="pending"):
        engine.remove_user(0)
    engine.commit()
    engine.fork()
    with pytest.raises(RuntimeError, match="fork"):
        engine.add_user(["A"])
    with pytest.raises(RuntimeError, match="fork"):
        engine.remove_user(0)
    engine.release_fork()
    with pytest.raises(KeyError):
        engine.add_user(["not-open"])
    assert engine.num_users == 3
    dfs = IncrementalAssignment(3, chain="dfs")
    dfs.open("A", [0, 1], 1)
    with pytest.raises(RuntimeError, match="bfs"):
        dfs.add_user(["A"])
    with pytest.raises(RuntimeError, match="bfs"):
        dfs.remove_user(0)


def test_removal_clears_the_cover_memo():
    """A memo hit skips index validation; after a removal the same bytes
    name the shifted population, so they are validated again: a cover
    that was in range before the removal is rejected after it, and an
    in-range one maps to exactly the users it names now."""
    engine = IncrementalAssignment(4)
    last = np.array([3], dtype=np.int64)
    pair = np.array([1, 2], dtype=np.int64)
    engine.open("A", last, 1)
    engine.open("B", pair, 2)
    engine.remove_user(0)
    with pytest.raises(IndexError):
        engine.try_open("C", last.copy(), 1)
    engine.open("D", pair.copy(), 2)
    # Old users 1..3 are now 0..2: A serves 2, B serves 0 and 1, so D
    # (covering 1 and 2) finds nobody free.
    assert engine.assignment() == {"A": [2], "B": [0, 1], "D": []}
    assert_valid_maximum(engine, [{2}, {0, 1}, {1, 2}], [1, 2, 2])
