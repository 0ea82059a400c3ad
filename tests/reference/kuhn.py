"""The scalar Kuhn DFS user engine, kept as a test oracle.

:class:`KuhnAssignment` is :class:`repro.flow.bipartite.IncrementalAssignment`
with its chain phase swapped for the original Kuhn-style alternating-path
DFS over per-station cover lists and a per-user owner list.  Both engines
keep an exact maximum assignment after every open; only *which*
equal-value assignment is realised may differ.  The DFS moves users
through the engine's ``_move``, so the bitsets stay in step with the owner
list and the inherited read API (``assignment``, ``served_bits``,
``direct_gain_bounds``) reads the DFS's own assignment.

Tests pin the bitset engine's gains, served counts and probes against it,
and the paper-headline bench times ``appro_alg`` on it as the serial
reference.  It keeps no owner list through ``add_user`` or
``remove_user``, so it serves no live user edits.

:func:`reference_gain` is the exact gain the engines' count-only
``gain`` probes are pinned to: an ``open`` on a deep copy, which needs no
undo at all.  ``KuhnAssignment.gain`` is that copy-and-open.
"""

from __future__ import annotations

import copy
from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs
from repro.flow.bipartite import IncrementalAssignment


def reference_gain(engine, station: Hashable, cover, capacity: int) -> int:
    """The exact gain of opening ``station`` on ``engine``, by a committed
    open on a deep copy: ``engine`` itself is left as it was."""
    return copy.deepcopy(engine).open(station, cover, capacity)


class KuhnAssignment(IncrementalAssignment):
    """The user engine with Kuhn-DFS chains (see the module docstring)."""

    def __init__(self, num_users: int) -> None:
        super().__init__(num_users)
        self._assigned_list: list = [-1] * num_users   # user -> slot, -1 free
        self._cover_lists: list = []                   # slot -> sorted users
        self._visit_stamp: list = [0] * num_users
        self._stamp = 0
        self._fork_list: "list | None" = None

    # -- warm-start scope -------------------------------------------------

    def fork(self) -> None:
        super().fork()
        self._fork_list = list(self._assigned_list)

    def rollback_fork(self) -> None:
        super().rollback_fork()
        self._assigned_list = self._fork_list
        self._fork_list = None
        del self._cover_lists[len(self._names):]

    # -- mutation API -----------------------------------------------------

    def open(
        self, station: Hashable,
        covered_users: "int | Sequence | np.ndarray", capacity: int
    ) -> int:
        self._check_open(station, capacity)
        cover = self._cover_int(covered_users)
        slot = self._push_station(station, capacity, cover)
        self._cover_lists.append(self._users_of(cover))
        gain = direct = self._open_direct_scalar(slot, capacity)
        while gain < capacity and self._augment_dfs(slot):
            gain += 1
        obs.counter_inc("flow.try_opens")
        obs.counter_inc("flow.direct_assignments", direct)
        obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    def gain(
        self, station: Hashable,
        covered_users: "int | Sequence | np.ndarray", capacity: int
    ) -> int:
        """The exact gain, by :func:`reference_gain`."""
        return reference_gain(self, station, covered_users, capacity)

    # -- internals --------------------------------------------------------

    def _open_direct_scalar(self, slot: int, capacity: int) -> int:
        """Scalar-reference direct phase: first ``capacity`` unassigned
        users in cover order."""
        assigned = self._assigned_list
        gain = 0
        for u in self._cover_lists[slot]:
            if gain == capacity:
                break
            if assigned[u] < 0:
                self._move(u, -1, slot)
                self._served += 1
                gain += 1
        return gain

    def _augment_dfs(self, root: int) -> bool:
        """The scalar reference: Kuhn-style alternating-path DFS.

        A path is root -> u1 (covered by root, assigned to T1) -> T1 -> u2
        (covered by T1, assigned to T2) -> ... -> uk unassigned; augmenting
        reassigns each user one station up the chain, netting exactly one
        newly served user.  A failed search leaves the assignment untouched
        and proves no augmentation through ``root`` exists.
        """
        self._stamp += 1
        stamp = self._stamp
        visit = self._visit_stamp
        assigned_to = self._assigned_list
        covers = self._cover_lists

        # Iterative DFS with both sides marked per augmentation: users via
        # the stamp array, stations via ``explored``.  A station is explored
        # at most once — by the time it is popped its entire cover is
        # stamped, so re-exploring it can never find anything new (standard
        # Kuhn left-vertex marking).  Total work is O(E).
        #
        # A frame is [station, scan_index, claim_user]: ``claim_user`` is
        # the user (currently assigned to ``station``) that the *parent*
        # frame's station wants to take over.
        explored = {root}
        frames: list = [[root, 0, -1]]
        while frames:
            frame = frames[-1]
            station, idx = frame[0], frame[1]
            cover = covers[station]
            cover_len = len(cover)
            pushed = False
            while idx < cover_len:
                u = cover[idx]
                idx += 1
                if visit[u] == stamp:
                    continue
                visit[u] = stamp
                owner = assigned_to[u]
                if owner < 0:
                    # Success: u joins this station; unwind the chain, each
                    # parent taking its claimed user from its child.
                    frame[1] = idx
                    self._move(u, -1, station)
                    for depth in range(len(frames) - 1, 0, -1):
                        child = frames[depth]
                        self._move(child[2], child[0], frames[depth - 1][0])
                    self._served += 1
                    return True
                if owner not in explored:
                    explored.add(owner)
                    frame[1] = idx
                    frames.append([owner, 0, u])
                    pushed = True
                    break
            if not pushed:
                frame[1] = idx
                frames.pop()
        return False

    def _move(self, user: int, old: int, new: int) -> None:
        super()._move(user, old, new)
        self._assigned_list[user] = new
