"""Bulk chain replays against the per-unit replay they replace.

``IncrementalAssignment.open`` replays the chain its last search found by
pushing the chain's whole bottleneck at once when no user entering a
link's child is covered by that link's parent, and one unit otherwise.
The per-unit ``open`` lives on as ``tests/reference/unit_push.py``.  Over
random sequences of ``open``, ``fork`` and ``rollback_fork`` this checks
that both realise the same slot bitsets, loads, assigned set and served
count after every step, on layered instances whose searches build chains
of three and four stations; a hand-built chain that breaks the condition
replays one unit at a time.  ``_lowest_bits`` is checked against a naive
peel for every ``k``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.bipartite import (
    _PEEL_BITS,
    IncrementalAssignment,
    _lowest_bits,
)
from tests.reference.unit_push import UnitPushAssignment, naive_lowest_bits


def layered_stations(seed: int, layers: int, width: int,
                     density: float, noise: float) -> tuple:
    """``(num_users, [(cover bitset, capacity)])`` in open order.

    Users form ``layers + 1`` layers of ``width``, in index order.
    Station ``j`` covers a random share ``density`` of layers ``j`` and
    ``j + 1``, and with a capacity of at most ``width`` its direct phase
    takes users of layer ``j``, the lower indices; the last layer stays
    free.  A root covering part of the first layer then augments along a
    chain up to ``layers + 1`` stations long.  ``noise`` adds random
    users to every cover, which shortens some chains; a few random
    stations follow the root."""
    rng = np.random.default_rng(seed)
    n = (layers + 1) * width
    layer = np.arange(n).reshape(layers + 1, width)

    def cover_of(users) -> int:
        users = set(int(u) for u in users)
        users |= {int(u) for u in np.flatnonzero(rng.random(n) < noise)}
        return sum(1 << u for u in users)

    def share(users):
        keep = users[rng.random(users.size) < density]
        return keep if keep.size else users[:1]

    stations = []
    for j in range(layers):
        cover = cover_of(np.concatenate([share(layer[j]),
                                         share(layer[j + 1])]))
        stations.append((cover, int(rng.integers(1, width + 1))))
    root = cover_of(share(layer[0]))
    stations.append((root, int(rng.integers(1, width + 2))))
    for _ in range(int(rng.integers(0, 3))):
        stations.append((cover_of(np.flatnonzero(rng.random(n) < 0.3)),
                         int(rng.integers(0, width + 1))))
    return n, stations


def state(engine) -> tuple:
    return (list(engine._slot_ints), list(engine._loads),
            engine.served_bits, engine.served_count)


def run_sequence(n: int, stations: list, ops: list) -> None:
    """Apply ``ops`` ("open" takes the next station) to both engines and
    compare their state after every step."""
    engine, reference = IncrementalAssignment(n), UnitPushAssignment(n)
    forked = False
    todo = list(enumerate(stations))
    for op in ops:
        if op == "open" and todo:
            name, (cover, capacity) = todo.pop(0)
            assert engine.open(name, cover, capacity) == reference.open(
                name, cover, capacity)
        elif op == "fork" and not forked:
            engine.fork()
            reference.fork()
            forked = True
        elif op == "rollback" and forked:
            engine.rollback_fork()
            reference.rollback_fork()
            forked = False
        assert state(engine) == state(reference)


layered = st.builds(
    layered_stations,
    seed=st.integers(0, 2**32 - 1),
    layers=st.integers(1, 4),
    width=st.integers(1, 6),
    density=st.sampled_from([0.5, 0.8, 1.0]),
    noise=st.sampled_from([0.0, 0.05, 0.15]),
)
ops = st.lists(st.sampled_from(["open", "open", "open", "fork", "rollback"]),
               min_size=1, max_size=16)


@given(layered, ops)
@settings(max_examples=300, deadline=None)
def test_bulk_replays_realise_the_per_unit_assignment(instance, steps):
    n, stations = instance
    run_sequence(n, stations, steps + ["open"] * len(stations))


class Recording(IncrementalAssignment):
    """The engine, noting each search's chain length and each replay's
    chain length, bottleneck and units pushed."""

    def __init__(self, num_users: int) -> None:
        super().__init__(num_users)
        self.searches: list = []
        self.replays: list = []

    def _augment_bfs(self, root, owners):
        path = super()._augment_bfs(root, owners)
        if path is not None:
            self.searches.append(len(path))
        return path

    def _replay_chain(self, chain, spare):
        covers, held = self._cover_ints, self._slot_ints
        sizes = [(covers[chain[0]] & ~self._assigned_int).bit_count(), spare]
        sizes += [(covers[p] & held[c]).bit_count()
                  for c, p in zip(chain, chain[1:])]
        pushed = super()._replay_chain(chain, spare)
        self.replays.append((len(chain), min(sizes), pushed))
        return pushed


def test_layered_instances_reach_long_chains_and_bulk_replays():
    """The generator behind the property test builds what it is meant to
    exercise: searches that find 3- and 4-station chains and bulk replays
    of more than one unit along multi-link chains.  No replay of a
    searched chain falls back to one unit while its bottleneck is larger:
    a breadth-first chain's parents never cover a user that can enter
    their child (``flow/bipartite.py`` module docstring)."""
    lengths: set = set()
    bulk = unit = 0
    for seed in range(200):
        n, stations = layered_stations(seed, 1 + seed % 4, 2 + seed % 5,
                                       (0.5, 0.8, 1.0)[seed % 3],
                                       (0.0, 0.05, 0.15)[seed // 3 % 3])
        engine = Recording(n)
        for name, (cover, capacity) in enumerate(stations):
            engine.open(name, cover, capacity)
        lengths.update(engine.searches)
        for length, bottleneck, pushed in engine.replays:
            bulk += length > 2 and pushed > 1
            unit += pushed == 1 < bottleneck
    assert {3, 4} <= lengths
    assert bulk
    assert not unit


def test_a_parent_covering_an_entering_user_replays_one_unit():
    """A chain whose parent covers a user entering its child — not one a
    search returns — replays one unit at a time, as the per-unit replay
    does: pushing its bottleneck of two at once would move user 3 where
    the second unit moves user 0."""
    engines = IncrementalAssignment(6), UnitPushAssignment(6)
    for engine in engines:
        engine.open("A", 0b110011, 2)   # holds 0, 1; users 4, 5 stay free
        engine.open("B", 0b001111, 2)   # holds 2, 3
        engine.open("R", 0b001101, 0)   # covers 0, entering B from A
    engine, reference = engines
    chain = [0, 1, 2]
    for _ in range(2):
        assert engine._replay_chain(chain, 2) == 1
        assert reference._replay_unit(chain)
        assert state(engine) == state(reference)
    assert engine._slot_ints[2] == 0b000101


@pytest.mark.parametrize("layers", [1, 2, 3])
def test_a_clean_ladder_replays_in_one_bulk_push(layers):
    """No noise and full density: the root's search finds the whole
    ladder, and one replay pushes every remaining unit."""
    width = 5
    n, stations = layered_stations(0, layers, width, 1.0, 0.0)
    stations = [(cover, width) for cover, _ in stations[:layers + 1]]
    engine = Recording(n)
    reference = UnitPushAssignment(n)
    for name, (cover, capacity) in enumerate(stations):
        assert engine.open(name, cover, capacity) == reference.open(
            name, cover, capacity)
        assert state(engine) == state(reference)
    assert engine.searches == [layers + 1]
    assert engine.replays[0] == (layers + 1, width - 1, width - 1)


@given(st.sets(st.integers(0, 3000), max_size=40))
@settings(max_examples=200, deadline=None)
def test_lowest_bits_equals_a_naive_peel(positions):
    bits = sum(1 << p for p in positions)
    for k in range(len(positions) + 1):
        assert _lowest_bits(bits, k) == naive_lowest_bits(bits, k)


def test_lowest_bits_covers_each_strategy():
    """Popcount 20 reaches the low peel (k <= 6), bisection and the high
    peel (at most 6 bits dropped) for the k the property test sweeps."""
    rng = np.random.default_rng(1)
    bits = sum(1 << int(p) for p in rng.choice(3000, 20, replace=False))
    ks = range(21)
    assert any(k <= _PEEL_BITS for k in ks)
    assert any(20 - k <= _PEEL_BITS for k in ks)
    assert any(k > _PEEL_BITS and 20 - k > _PEEL_BITS for k in ks)
    for k in ks:
        assert _lowest_bits(bits, k) == naive_lowest_bits(bits, k)
