"""Searches that skip dead stations against searches that do not.

A station is dead when no alternating path leads from it to a free user
(:func:`repro.flow.bipartite._live_fixpoint`).  The engine finds the live
stations once per committed state and lets the probes and the next
open's searches pass through them only.  Over random interleavings of
every public mutator this checks that

* a station found dead stays dead until ``rollback_fork``, ``add_user``
  or ``remove_user``;
* the engine realises the same assignment as one whose searches pass
  through every station, and measures the same gains as that engine, the
  scalar Kuhn reference (``tests/reference/kuhn.py``) and Dinic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import IncrementalAssignment, _live_fixpoint
from tests.reference.kuhn import KuhnAssignment, reference_gain
from tests.test_flow_bipartite import dinic_value
from tests.test_flow_probe import random_cover


class EveryStation(IncrementalAssignment):
    """The engine with every station treated as live: no search skips
    one, and no probe stops before its search."""

    def _live_state(self) -> tuple:
        return self._assigned_int, list(range(len(self._cover_ints)))


def bits_to_users(bits: int) -> list:
    return [u for u in range(bits.bit_length()) if bits >> u & 1]


def stations_of(engine) -> list:
    return [(bits_to_users(cover), cap)
            for cover, cap in zip(engine._cover_ints, engine._caps)]


def dead_slots(engine) -> set:
    live = _live_fixpoint(engine._cover_ints, engine._slot_ints,
                          engine._assigned_int)[1]
    return set(range(len(engine._cover_ints))) - set(live)


def realised(engine) -> tuple:
    return (engine.assignment(), engine.served_bits, engine.served_count,
            [engine.load_of(name) for name in engine.stations()])


def exact_gains(engine, probes: list) -> list:
    """Each probe's gain on a fresh Kuhn engine with the same stations,
    checked against Dinic."""
    n = engine.num_users
    stations = stations_of(engine)
    flow = dinic_value(n, stations)
    gains = []
    for cover, cap in probes:
        dfs = KuhnAssignment(n)
        for i, (users, capacity) in enumerate(stations):
            dfs.open(i, users, capacity)
        gain = dfs.gain("probe", cover, cap)
        assert gain == dinic_value(n, stations + [(cover, cap)]) - flow
        gains.append(gain)
    return gains


def run_interleaving(seed: int) -> int:
    """One random interleaving on both engines; returns how many dead
    stations it met."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 14))
    engine, every = IncrementalAssignment(n), EveryStation(n)
    forked = False
    dead: set = set()
    met = 0
    for step in range(24):
        n = engine.num_users
        op = str(rng.choice(["open", "open", "try", "fork", "unfork",
                             "add", "remove"]))
        reset = False
        if op in ("open", "try"):
            cover = random_cover(rng, n)
            cap = int(rng.integers(0, 4))
            for eng in (engine, every):
                if op == "open":
                    eng.open(("st", step), cover, cap)
                else:
                    assert eng.gain(("st", step), cover, cap) == (
                        reference_gain(eng, ("st", step), cover, cap))
        elif op == "fork" and not forked:
            engine.fork()
            every.fork()
            forked = True
        elif op == "unfork" and forked:
            engine.rollback_fork()
            every.rollback_fork()
            forked = False
            reset = True
        elif op == "add" and not forked:
            names = engine.stations()
            keep = rng.random(len(names)) < 0.5
            covering = [s for s, k in zip(names, keep) if k]
            assert engine.add_user(covering) == every.add_user(covering)
            reset = True
        elif op == "remove" and not forked and n > 1:
            user = int(rng.integers(0, n))
            assert engine.remove_user(user) == every.remove_user(user)
            reset = True
        assert realised(engine) == realised(every)
        now = dead_slots(engine)
        if not reset:
            assert dead <= now, f"{op} revived {sorted(dead - now)}"
        dead = now
        met += len(now)
        n = engine.num_users
        probes = [(random_cover(rng, n), int(rng.integers(0, n + 2)))
                  for _ in range(3)]
        got = [engine.gain("probe", cover, cap) for cover, cap in probes]
        assert got == [every.gain("probe", cover, cap)
                       for cover, cap in probes]
        assert got == exact_gains(engine, probes)
    return met


@given(st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_live_only_searches_match_searches_over_every_station(seed):
    run_interleaving(seed)


def test_interleavings_meet_dead_stations():
    """The generator reaches the case the skip is for."""
    assert sum(run_interleaving(seed) > 0 for seed in range(20)) >= 5
