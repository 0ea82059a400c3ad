"""Fuzz tests for the incremental assignment engine.

The engine is the correctness-critical hot path of Algorithm 2 (every
marginal gain flows through it), so beyond the targeted unit tests we
drive it with random interleavings of try_open / rollback / commit and
cross-check the full state against an independent Dinic solution after
every commit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import IncrementalAssignment
from tests.reference.subsets import direct_gain_bound
from tests.test_flow_bipartite import dinic_value


@given(st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_random_interleaving_matches_dinic(seed):
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(1, 25))
    engine = IncrementalAssignment(num_users)
    committed: dict = {}  # station key -> (covers, cap)

    for step in range(int(rng.integers(1, 12))):
        size = int(rng.integers(0, num_users + 1))
        covers = (
            [int(u) for u in rng.choice(num_users, size=size, replace=False)]
            if size else []
        )
        cap = int(rng.integers(0, num_users + 2))
        key = ("st", step)
        gain = engine.try_open(key, covers, cap)

        stations = list(committed.values())
        before = dinic_value(num_users, stations)
        after = dinic_value(num_users, stations + [(covers, cap)])
        assert gain == after - before, (
            f"gain {gain} != flow delta {after - before} at step {step}"
        )

        if rng.random() < 0.5:
            engine.rollback()
            assert engine.served_count == before
        else:
            engine.commit()
            committed[key] = (covers, cap)
            assert engine.served_count == after

    # Final full-state check: loads, coverage, uniqueness.
    assignment = engine.assignment()
    assert set(assignment) == set(committed)
    seen: set = set()
    for station, users in assignment.items():
        covers, cap = committed[station]
        assert len(users) <= cap
        assert set(users) <= set(covers)
        assert not (set(users) & seen)
        seen |= set(users)
    assert len(seen) == engine.served_count == dinic_value(
        num_users, list(committed.values())
    )


@given(st.integers(0, 10**9))
@settings(max_examples=20, deadline=None)
def test_rollback_is_perfect_undo(seed):
    """After any try_open + rollback, the observable state is bit-identical
    to before (assignments, loads, served count, gain bounds)."""
    rng = np.random.default_rng(seed)
    num_users = int(rng.integers(1, 20))
    engine = IncrementalAssignment(num_users)
    for i in range(int(rng.integers(0, 5))):
        size = int(rng.integers(0, num_users + 1))
        covers = (
            [int(u) for u in rng.choice(num_users, size=size, replace=False)]
            if size else []
        )
        engine.open(i, covers, int(rng.integers(0, 6)))

    snapshot_assign = [engine.station_of(u) for u in range(num_users)]
    snapshot_loads = {s: engine.load_of(s) for s in engine.stations()}
    snapshot_served = engine.served_count
    probe = [int(u) for u in rng.choice(num_users,
                                        size=min(5, num_users), replace=False)]
    snapshot_bound = direct_gain_bound(engine, probe, 3)

    size = int(rng.integers(0, num_users + 1))
    covers = (
        [int(u) for u in rng.choice(num_users, size=size, replace=False)]
        if size else []
    )
    engine.try_open("tmp", covers, int(rng.integers(0, num_users + 2)))
    engine.rollback()

    assert [engine.station_of(u) for u in range(num_users)] == snapshot_assign
    assert {s: engine.load_of(s) for s in engine.stations()} == snapshot_loads
    assert engine.served_count == snapshot_served
    assert direct_gain_bound(engine, probe, 3) == snapshot_bound
    assert "tmp" not in engine.stations()
