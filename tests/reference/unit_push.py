"""The per-unit chain replay of the user engine, kept as a test oracle.

:class:`UnitPushAssignment` is :class:`repro.flow.bipartite.IncrementalAssignment`
with its ``open`` swapped for the one that replays a chain one unit at a
time: per unit, the lowest free user the leaf covers joins the leaf and
on every link the lowest user the child holds that the parent covers
moves up.  The engine's ``open`` pushes a chain's whole bottleneck at once
where that realises the same users; tests pin its slot bitsets, loads,
assigned set and served count to this one after every open.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs
from repro.flow.bipartite import IncrementalAssignment


class UnitPushAssignment(IncrementalAssignment):
    """The user engine with per-unit chain replays (module docstring)."""

    def open(
        self, station: Hashable,
        covered_users: "int | Sequence | np.ndarray", capacity: int
    ) -> int:
        """Open ``station`` and return the exact gain in served users."""
        self._check_open(station, capacity)
        cover = self._cover_int(covered_users)
        slot = self._push_station(station, capacity, cover)
        gain = direct = self._open_direct(slot, capacity)
        # Chain phase: alternating-path augmentations for the remainder.
        # Successive augmentations of one open usually work along the same
        # station chain, so each successful search leaves its chain behind
        # and the next round first revalidates it with a couple of bitset
        # ANDs (fresh witness users) before paying for a full search.
        chain: "list | None" = None
        owners = None
        while gain < capacity:
            if chain is not None and self._replay_unit(chain):
                gain += 1
                continue
            if owners is None:
                owners = self._live_state()[1]
            chain = self._augment_bfs(slot, owners)
            if chain is None:
                break
            gain += 1
        self._live = None
        obs.counter_inc("flow.try_opens")
        obs.counter_inc("flow.direct_assignments", direct)
        obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    def _replay_unit(self, chain: list) -> bool:
        """Revalidate the station chain left by the previous augmentation
        (``chain[0]`` = leaf where the free user joined, ``chain[-1]`` =
        the root with spare capacity) and re-augment along it with fresh
        witness users: one AND per link instead of a full search.  Returns
        ``False`` with the state untouched when any link lost its witness
        or the leaf has no free covered user left.  Every replayed path is
        a valid alternating chain, so the exact maximum is unaffected —
        the closing failed full search still certifies maximality.
        """
        covers = self._cover_ints
        slot_ints = self._slot_ints
        if not covers[chain[0]] & ~self._assigned_int:
            return False
        wits = []
        for child, parent in zip(chain, chain[1:]):
            hit = covers[parent] & slot_ints[child]
            if not hit:
                return False
            wits.append((hit & -hit).bit_length() - 1)
        self._push_path(chain, wits)
        return True


def naive_lowest_bits(bits: int, k: int) -> int:
    """The ``k`` lowest set bits of ``bits``, peeled one at a time."""
    out = 0
    for _ in range(k):
        low = bits & -bits
        out |= low
        bits ^= low
    return out
