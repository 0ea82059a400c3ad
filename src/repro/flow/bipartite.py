"""Incremental capacitated user-to-station assignment.

Algorithm 2 evaluates the marginal gain of deploying UAV ``k`` at every
feasible location before committing one.  Re-solving the Section II-D flow
network from scratch for each evaluation costs O(K n^2); this engine
instead maintains a maximum assignment and, for a tentative new station,
augments it in two phases:

1. *direct phase* — grab unassigned covered users until capacity, as one
   bitset subtraction;
2. *chain phase* — alternating-path augmentations for the remaining
   capacity, stopping at the first failure.

The assignment is kept as arbitrary-precision integer bitsets (bit ``u``
= user ``u``): each open station's cover and its assigned users, and the
union of all assigned users.  There is no per-user array: who holds a
user is the one station whose assigned bitset has its bit.  Covers come
in as integers (:meth:`repro.network.coverage.CoverageGraph.coverable_int`,
what the greedy passes) or as user-index arrays, which are validated and
packed once per call.

The chain phase is a layered breadth-first search over the bitsets:
expanding a station is one word-parallel AND against the not-yet-visited
mask, the free-user test is another, and owner discovery intersects the
reached set with each station's assigned bitset — a handful of
machine-word loops per layer instead of a Python walk over thousands of
users.  Reached stations remember the *witness* user through which they
were reached, which reconstructs the alternating path for reassignment.
(Python ints beat packed numpy arrays here: at a few thousand users a
bitset AND is ~100ns with no per-call dispatch overhead.)  The scalar
Kuhn DFS it replaced lives on as the test oracle
``tests/reference/kuhn.py``: both maintain exact maximum assignments;
only *which* equal-value assignment is realised differs.

The result is an *exact* maximum assignment after every open: each
augmentation increases the max flow by exactly one, and a failed search
proves no further augmentation through the new station exists.

Searches skip *dead* stations: those with no alternating path to a free
user (:func:`_live_fixpoint`).  A dead station stays dead under opens and
augmentations — an arc into it would need a user that was free or on an
augmenting path, and either makes it live — so the live stations found
once per committed state serve as the owner list of every probe and of
the next open's searches.  Skipping the dead ones changes no search
result: a dead station is never a leaf, never the parent of a live one,
and only marks users that dead stations hold.

An engine changes in one way, :meth:`open`, which commits the station
and returns its gain.  A caller that only needs the number — every
exact-gain measurement of the greedy — calls :meth:`gain`: the same
search on local copies of the per-station bitsets, pushing each path's
whole bottleneck at once, with no write and no undo.  A max-flow value
does not depend on which augmenting paths realise it, so the count
equals ``open``'s.

Fast mode ranks by the assignment opens leave, so an open realises the
one of augmenting one unit per path: a search's path, then replays of
its station chain, each unit taking the lowest free user the leaf covers
and, on every link, the lowest user the child holds that the parent
covers.  An open pushes a replay's whole bottleneck ``b`` at once — the
``b`` lowest of each of those sets — when no user entering a link's
child is covered by that link's parent: each set then only loses its
lowest users, so ``b`` units take exactly those.  A one-link chain
always qualifies: the users entering its leaf are free, and the opened
station took every free user it covers in the direct phase.  So does
every longer chain a search returns: a user that can enter a chain
station was free or held further down the chain, and a breadth-first
parent covering it would have reached its holder a layer earlier.  Any
other chain replays one unit at a time.  The per-unit open is the test
oracle ``tests/reference/unit_push.py``.

The one undo is :meth:`fork`, a *warm-start scope*: it snapshots the
state (a few ints and list copies) so :meth:`rollback_fork` restores it
exactly no matter how many stations were opened in between.  The subset
sweep uses this to evaluate adjacent anchor subsets on one engine
instead of rebuilding it from scratch per subset.

Batched scoring: :meth:`direct_gain_bounds` evaluates the direct-phase
lower bound for a whole candidate matrix of packed cover bitsets
(:mod:`repro.util.bits` layout, whole 64-bit words) in one word-wide
masked popcount — fast mode's per-round candidate ranking.

Every entry point that takes a cover array reads it through
:func:`_cover_array`: integer indices only (a boolean mask or float
indices raise ``TypeError``), each distinct node counted once.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs
from repro.util.bits import (
    as_words,
    drop_bit,
    int_to_packed,
    pack_indices,
    packed_to_int,
    popcount_rows,
    unpack_indices,
    unpack_rows,
)


def _cover_array(covered: "Sequence | np.ndarray", num_nodes: int,
                noun: str) -> np.ndarray:
    """``covered`` as validated int64 indices of distinct nodes.

    A boolean mask or float indices would silently name the wrong nodes,
    so any non-integer dtype raises ``TypeError`` (an empty list, which
    numpy types as float, is allowed).  Every index must lie in ``[0,
    num_nodes)`` (``IndexError`` names the first one that does not), and
    repeats are dropped, keeping first occurrences in order, so a count
    over the result counts each node once."""
    cover = np.asarray(covered)
    if cover.ndim != 1:
        raise ValueError(f"covered_{noun}s must be one-dimensional")
    if cover.dtype.kind not in "iu" and cover.size:
        raise TypeError(
            f"covered_{noun}s must be integer {noun} indices, "
            f"got dtype {cover.dtype}"
        )
    cover = cover.astype(np.int64, copy=False)
    if not cover.size:
        return cover
    # Graph covers are sorted and distinct: their range check is the ends.
    ordered = cover.size == 1 or bool((cover[1:] > cover[:-1]).all())
    if ordered and cover[0] >= 0 and cover[-1] < num_nodes:
        return cover
    bad = (cover < 0) | (cover >= num_nodes)
    if bad.any():
        raise IndexError(
            f"{noun} {int(cover[bad][0])} outside [0, {num_nodes})"
        )
    _, first = np.unique(cover, return_index=True)
    return cover[np.sort(first)]


class IncrementalAssignment:
    """Maximum capacitated assignment of users to dynamically added stations.

    Users are integers ``0..num_users-1``; stations are arbitrary hashable
    keys (Algorithm 2 uses ``(uav_index, location_index)``).  Each user may
    be assigned to at most one station that covers it; each station serves
    at most its capacity.  A cover is an integer bitset or a sequence of
    user indices.
    """

    def __init__(self, num_users: int) -> None:
        if num_users < 0:
            raise ValueError(f"num_users must be non-negative, got {num_users}")
        self.num_users = num_users
        self._assigned_int = 0        # bitset of assigned users (bit u = user u)
        # Station storage, slot-indexed in open order.
        self._names: list = []        # slot -> station key
        self._slots: dict = {}        # station key -> slot
        self._cover_ints: list = []   # slot -> cover bitset
        self._slot_ints: list = []    # slot -> assigned-user bitset
        self._caps: list = []
        self._loads: list = []
        self._served = 0
        self._fork_state: "tuple | None" = None
        # (users, slots) of the live stations (_live_fixpoint) in the
        # current state; None = not computed since the last change.
        self._live: "tuple | None" = None

    # -- read API ---------------------------------------------------------

    @property
    def served_count(self) -> int:
        """Number of users currently assigned (the max-flow value)."""
        return self._served

    @property
    def served_bits(self) -> int:
        """The assigned users as an integer bitset (bit ``u`` = user ``u``)."""
        return self._assigned_int

    def station_of(self, user: int) -> "Hashable | None":
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} outside [0, {self.num_users})")
        slot = self._slot_of(user)
        return None if slot < 0 else self._names[slot]

    def load_of(self, station: Hashable) -> int:
        return self._loads[self._slots[station]]

    def stations(self) -> list:
        return list(self._names)

    def assignment(self) -> dict:
        """Mapping station -> sorted list of assigned users."""
        return {
            name: self._users_of(held)
            for name, held in zip(self._names, self._slot_ints)
        }

    def direct_gain_bounds(
        self, cover_bits: np.ndarray, capacities: "int | np.ndarray"
    ) -> np.ndarray:
        """Lower bounds on the gain of opening a station on each of a
        matrix of packed cover bitsets (shape ``(..., row bytes)``,
        :mod:`repro.util.bits` layout — e.g. rows gathered from
        :attr:`repro.core.context.SolverContext.coverage_bits`): the
        unassigned covered users each could take directly, capped by
        capacity.  (The exact gain adds alternating-chain augmentations on
        top.)

        One masked popcount over 64-bit words ranks a whole candidate set
        at once — the greedy's per-round gain matrix."""
        rows = as_words(np.ascontiguousarray(cover_bits, dtype=np.uint8))
        # Surplus pad bits end up set in the inverse but every cover row
        # is zero there.
        free = ~as_words(int_to_packed(self._assigned_int, self.num_users))
        masked = rows & free
        return np.minimum(capacities, popcount_rows(masked))

    # -- warm-start scope -------------------------------------------------

    def fork(self) -> None:
        """Open a warm-start scope: snapshot the state so that
        :meth:`rollback_fork` restores exactly it, whatever stations are
        opened and however users are reassigned in between.  One scope at
        a time.

        The snapshot is the assigned bitset plus shallow list copies of
        the per-station bitsets and loads — a few microseconds — so a
        subset sweep forks/rolls back per subset instead of rebuilding
        the engine each time."""
        if self._fork_state is not None:
            raise RuntimeError("a fork is already active")
        self._fork_state = (
            self._assigned_int,
            list(self._slot_ints),
            list(self._loads),
            len(self._names),
            self._served,
        )

    def rollback_fork(self) -> None:
        """Restore the exact state captured by :meth:`fork`."""
        if self._fork_state is None:
            raise RuntimeError("no active fork to roll back")
        self._live = None
        (self._assigned_int, self._slot_ints, self._loads, nslots,
         self._served) = self._fork_state
        self._fork_state = None
        for name in self._names[nslots:]:
            del self._slots[name]
        del self._names[nslots:]
        del self._caps[nslots:]
        del self._cover_ints[nslots:]

    # -- mutation API -----------------------------------------------------

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
        # and the next round first replays it with fresh witness users
        # (:meth:`_replay_chain`) before paying for a full search.
        chain: "list | None" = None
        owners = None
        while gain < capacity:
            if chain is not None:
                pushed = self._replay_chain(chain, capacity - gain)
                if pushed:
                    gain += pushed
                    if pushed > 1:
                        chain = None   # a bulk push exhausts its chain
                    continue
            if owners is None:
                owners = self._live_state()[1]
            chain = self._augment_bfs(slot, owners)
            if chain is None:
                break
            gain += 1
        self._live = None
        if obs.is_enabled():
            obs.counter_inc("flow.try_opens")
            obs.counter_inc("flow.direct_assignments", direct)
            obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    def gain(
        self, station: Hashable,
        covered_users: "int | Sequence | np.ndarray", capacity: int
    ) -> int:
        """The exact gain :meth:`open` would return, leaving the engine
        untouched: same checks, same counters, no write.

        The gain is ``capacity`` when the free covered users fill it, and
        the free covered users alone when the cover holds no user of a
        live station (:func:`_live_fixpoint`): no alternating path can
        start.  Otherwise the chain phase runs on local copies of the
        bitsets (:meth:`_probe_chains`)."""
        self._check_open(station, capacity)
        cover = self._cover_int(covered_users)
        free = cover & ~self._assigned_int
        direct = min(free.bit_count(), capacity)
        gain = direct
        if direct < capacity:
            live, owners = self._live_state()
            if cover & live:
                gain = self._probe_chains(cover, free, capacity, owners)
        if obs.is_enabled():
            obs.counter_inc("flow.try_opens")
            obs.counter_inc("flow.direct_assignments", direct)
            obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    # -- live user edits --------------------------------------------------
    #
    # The mission world keeps one assignment over its placed stations while
    # users arrive and depart.  Each edit restores an exact maximum with at
    # most one alternating-path search, so no edit ever re-solves.

    def add_user(self, stations: "Sequence") -> bool:
        """Append one user (index ``num_users``) covered by the open
        ``stations`` and restore a maximum assignment; returns whether the
        user is served.

        The user joins the first covering station (in open order) with
        spare capacity; failing that, one alternating-path search rooted
        at the user.  The assignment was maximum before the arrival, so
        any augmenting path now must start at the new user: one search
        is exact."""
        self._check_live_edit()
        slots = sorted(self._slots[station] for station in stations)
        user = self.num_users
        self.num_users += 1
        bit = 1 << user
        for slot in slots:
            self._cover_ints[slot] |= bit
        for slot in slots:
            if self._loads[slot] < self._caps[slot]:
                self._move(user, -1, slot)
                self._served += 1
                obs.counter_inc("flow.direct_assignments")
                return True
        if not slots:
            return False
        obs.counter_inc("flow.arrival_searches")
        if self._augment_to_user(user, slots):
            obs.counter_inc("flow.chain_augmentations")
            return True
        return False

    def remove_user(self, user: int) -> bool:
        """Delete ``user``; every later user shifts down one index.
        Returns whether a served user was replaced.

        When the user was served, one alternating-path search rooted at
        its station restores a maximum assignment: that station is the
        only one that gained residual capacity, so every augmenting path
        ends there."""
        self._check_live_edit()
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} outside [0, {self.num_users})")
        slot = self._slot_of(user)
        self._assigned_int = drop_bit(self._assigned_int, user)
        self._cover_ints = [drop_bit(bits, user) for bits in self._cover_ints]
        self._slot_ints = [drop_bit(bits, user) for bits in self._slot_ints]
        self.num_users -= 1
        if slot < 0:
            return False
        self._loads[slot] -= 1
        self._served -= 1
        obs.counter_inc("flow.departure_searches")
        path = self._augment_bfs(slot, range(len(self._cover_ints)))
        if path is None:
            return False
        obs.counter_inc("flow.chain_augmentations")
        return True

    def _check_live_edit(self) -> None:
        if self._fork_state is not None:
            raise RuntimeError("cannot edit users inside a fork")
        self._live = None

    def _augment_to_user(self, user: int, first: list) -> bool:
        """One alternating path from the free ``user`` to a station with
        spare capacity, by breadth-first search over stations.

        ``first`` are the (full) stations covering ``user``.  Expanding a
        station offers its assigned users to every unseen station that
        covers one of them, remembering a witness user.  On success each
        station on the path takes its witness from the station before it,
        and the first station takes ``user``."""
        covers = self._cover_ints
        slot_ints = self._slot_ints
        loads = self._loads
        caps = self._caps
        parent = {slot: (-1, user) for slot in first}
        frontier = list(first)
        while frontier:
            nxt: list = []
            for st in frontier:
                held = slot_ints[st]
                for other in range(len(covers)):
                    if other in parent:
                        continue
                    hit = covers[other] & held
                    if not hit:
                        continue
                    parent[other] = (st, (hit & -hit).bit_length() - 1)
                    if loads[other] < caps[other]:
                        while other >= 0:
                            prev, taken = parent[other]
                            self._move(taken, prev, other)
                            other = prev
                        self._served += 1
                        return True
                    nxt.append(other)
            frontier = nxt
        return False

    # -- internals --------------------------------------------------------

    def _check_open(self, station: Hashable, capacity: int) -> None:
        if station in self._slots:
            raise ValueError(f"station {station!r} already open")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")

    def _cover_int(self, covered_users: "int | Sequence | np.ndarray") -> int:
        """The cover as an integer bitset: an ``int`` as it is (its bits
        must name users), an index sequence validated and packed."""
        if type(covered_users) is int:
            if covered_users < 0 or covered_users >> self.num_users:
                raise IndexError(
                    f"cover bitset names users outside [0, {self.num_users})"
                )
            return covered_users
        return packed_to_int(pack_indices(
            _cover_array(covered_users, self.num_users, "user"),
            self.num_users,
        ))

    def _push_station(self, station: Hashable, capacity: int,
                      cover: int) -> int:
        """Append an empty station slot; returns it."""
        slot = len(self._names)
        self._names.append(station)
        self._slots[station] = slot
        self._cover_ints.append(cover)
        self._slot_ints.append(0)
        self._caps.append(capacity)
        self._loads.append(0)
        return slot

    def _users_of(self, bits: int) -> list:
        """An integer bitset as the sorted list of its users."""
        return unpack_indices(int_to_packed(bits, self.num_users),
                              self.num_users)

    def _slot_of(self, user: int) -> int:
        """The slot holding ``user``; ``-1`` when it is free."""
        bit = 1 << user
        if self._assigned_int & bit:
            for slot, held in enumerate(self._slot_ints):
                if held & bit:
                    return slot
        return -1

    def _open_direct(self, slot: int, capacity: int) -> int:
        """Direct phase as one bitset subtraction: every free covered user
        up to capacity, lowest user indices first."""
        if capacity == 0:
            return 0
        take = self._cover_ints[slot] & ~self._assigned_int
        if not take:
            return 0
        k = min(take.bit_count(), capacity)
        take = _lowest_bits(take, k)
        self._assigned_int |= take
        self._slot_ints[slot] |= take
        self._loads[slot] += k
        self._served += k
        return k

    def _augment_bfs(self, root: int, owners) -> "list | None":
        """One unit of augmentation ending at ``root`` (which has spare
        capacity): :func:`_alternating_search` over ``owners``, then
        :meth:`_push_path` along the path found, which is returned (leaf
        first).  ``None`` when the search fails, which proves no
        augmentation through ``root`` exists.
        """
        leaf, parent = _alternating_search(
            self._cover_ints, self._slot_ints, self._assigned_int, root,
            owners,
        )
        if leaf < 0:
            return None
        path, wits = [leaf], []
        while path[-1] != root:
            up, witness = parent[path[-1]]
            path.append(up)
            wits.append(witness)
        self._push_path(path, wits)
        return path

    def _push_path(self, path: list, wits: list) -> None:
        """Augment one unit along ``path`` (leaf first, root last): the
        lowest free user the leaf covers joins it, and each ``wits[i]``
        moves from ``path[i]`` up to ``path[i + 1]``.  :meth:`_move`
        inlined: this is the hottest path of every open."""
        slot_ints = self._slot_ints
        loads = self._loads
        leaf = path[0]
        free = self._cover_ints[leaf] & ~self._assigned_int
        low = free & -free
        slot_ints[leaf] |= low
        self._assigned_int |= low
        loads[leaf] += 1
        for child, parent, user in zip(path, path[1:], wits):
            bit = 1 << user
            slot_ints[parent] |= bit
            slot_ints[child] &= ~bit
            loads[child] -= 1
            loads[parent] += 1
        self._served += 1

    def _live_state(self) -> tuple:
        """``(users, slots)`` of the live stations in the current state,
        computed by :func:`_live_fixpoint` when not cached.  Probes share
        it; an open keeps using it for its own searches (dead stays dead)
        and clears it at the end, so the next probes see the stations
        that open killed.  Carrying the slots over opens instead measured
        slower: the stale set stops far fewer probes before their
        search."""
        if self._live is None:
            self._live = _live_fixpoint(
                self._cover_ints, self._slot_ints, self._assigned_int
            )
        return self._live

    def _probe_chains(self, cover: int, free: int, capacity: int,
                      owners: list) -> int:
        """The gain of a station with cover bitset ``cover`` whose free
        covered users ``free`` fall short of ``capacity``, counted on
        local copies of the engine state.

        The station (the root) takes ``free``, then each
        :func:`_alternating_search` over ``owners`` that finds a path
        pushes its whole bottleneck at once: the remaining capacity, the
        free users the leaf covers, and for every link the users the
        child holds that the parent covers.  Pushing ``b`` units moves
        ``b`` such users one station up each link, so every unit is a
        valid augmenting path; the search that fails certifies a
        maximum, as in :meth:`open`."""
        covers = self._cover_ints + [cover]
        held = self._slot_ints + [free]
        assigned = self._assigned_int | free
        root = len(covers) - 1
        gain = free.bit_count()
        while gain < capacity:
            leaf, parent = _alternating_search(
                covers, held, assigned, root, owners
            )
            if leaf < 0:
                break
            take = covers[leaf] & ~assigned
            push = min(capacity - gain, take.bit_count())
            links = []
            st = leaf
            while st != root:
                up = parent[st][0]
                hit = covers[up] & held[st]
                push = min(push, hit.bit_count())
                links.append((up, st, hit))
                st = up
            take = _lowest_bits(take, push)
            assigned |= take
            held[leaf] |= take
            for up, st, hit in links:
                moved = _lowest_bits(hit, push)
                held[st] &= ~moved
                held[up] |= moved
            gain += push
        return gain

    def _replay_chain(self, chain: list, spare: int) -> int:
        """Re-augment along the station chain left by the previous
        augmentation (``chain[0]`` = leaf where the free user joined,
        ``chain[-1]`` = the root with ``spare`` capacity left) with fresh
        witness users; returns the units pushed, ``0`` with the state
        untouched when the leaf covers no free user or a link has no user
        its child holds and its parent covers.

        When no user entering a link's child is covered by that link's
        parent, the replay pushes the chain's whole bottleneck ``b`` (at
        most ``spare``) at once, the users ``b`` per-unit replays would
        move (module docstring); otherwise it pushes the one unit a per-unit
        replay would.  Every replayed path is a valid alternating chain,
        so the exact maximum is unaffected: the closing failed full
        search still certifies maximality."""
        covers = self._cover_ints
        held = self._slot_ints
        take = covers[chain[0]] & ~self._assigned_int
        if not take:
            return 0
        push = min(spare, take.bit_count())
        hits = []
        for child, parent in zip(chain, chain[1:]):
            hit = covers[parent] & held[child]
            if not hit:
                return 0
            push = min(push, hit.bit_count())
            hits.append(hit)
        if push > 1:
            # The users entering each child, against its parent's cover.
            take = entering = _lowest_bits(take, push)
            moved = []
            for parent, hit in zip(chain[1:], hits):
                if entering & covers[parent]:
                    push = 1
                    break
                entering = _lowest_bits(hit, push)
                moved.append(entering)
        if push == 1:
            take &= -take
            moved = [hit & -hit for hit in hits]
        self._assigned_int |= take
        held[chain[0]] |= take
        for child, parent, users in zip(chain, chain[1:], moved):
            held[child] &= ~users
            held[parent] |= users
        # Loads change at the ends only: every inner station gives as
        # many users up the chain as it receives.
        self._loads[chain[-1]] += push
        self._served += push
        return push

    def _move(self, user: int, old: int, new: int) -> None:
        """Reassign ``user`` from slot ``old`` (``-1`` = free) to slot
        ``new``.  The caller counts a newly served user."""
        bit = 1 << user
        self._slot_ints[new] |= bit
        self._loads[new] += 1
        if old >= 0:
            self._slot_ints[old] &= ~bit
            self._loads[old] -= 1
        else:
            self._assigned_int |= bit


class CellAssignment:
    """Incremental capacitated *demand-cell*-to-station assignment.

    The aggregated counterpart of :class:`IncrementalAssignment`: instead
    of unit-supply users, each node is a demand cell with an integer
    supply (its member count), and a station may draw multiple units from
    one cell (flow network ``source -(demand)-> cell -> station
    -(capacity)-> sink``).  The served count is the max-flow value in
    *units*, i.e. users.

    Same contract as the user engine: after every :meth:`open` the
    maintained flow is an exact maximum (each augmenting path is found
    from the previous maximum, so the incremental invariant of max flow
    applies); :meth:`gain` measures an open without keeping it, and
    :meth:`fork` opens the warm-start scope the subset sweep uses.

    Cell populations are orders of magnitude smaller than user
    populations (that is the point of aggregating), so the engine favours
    simplicity over the user engine's bitset micro-optimisations: a probe
    is an open between a snapshot and its restore, snapshots are
    O(cells + flow entries), augmentation is a plain BFS over the
    residual graph with integer bottlenecks.
    """

    def __init__(self, demands: "Sequence | np.ndarray") -> None:
        demands = np.asarray(demands, dtype=np.int64)
        if demands.ndim != 1:
            raise ValueError("demands must be one-dimensional")
        if demands.size and int(demands.min()) < 1:
            raise ValueError("cell demands must all be >= 1")
        self.demands = demands
        #: Cells play the "user" role everywhere the greedy talks to the
        #: engine, so the attribute keeps the generic name.
        self.num_users = int(demands.size)
        self._residual = demands.copy()
        self._names: list = []        # slot -> station key
        self._slots: dict = {}        # station key -> slot
        self._covers: list = []       # slot -> np.int64 coverable-cell array
        self._caps: list = []
        self._loads: list = []        # slot -> assigned units
        self._flows: list = []        # slot -> {cell: units}
        self._served = 0
        self._fork_state: "tuple | None" = None

    # -- read API ---------------------------------------------------------

    @property
    def served_count(self) -> int:
        """Total assigned units — users served through their cells."""
        return self._served

    def load_of(self, station: Hashable) -> int:
        return self._loads[self._slots[station]]

    def stations(self) -> list:
        return list(self._names)

    def flows(self) -> dict:
        """Mapping station -> {cell: units}."""
        return {
            name: dict(flow) for name, flow in zip(self._names, self._flows)
        }

    def assignment(self) -> dict:
        """Alias of :meth:`flows` (API parity with the user engine)."""
        return self.flows()

    def direct_gain_bounds(
        self, cover_bits: np.ndarray, capacities: "int | np.ndarray"
    ) -> np.ndarray:
        """Residual demand each packed cover bitset (one bit per *cell*,
        :mod:`repro.util.bits` layout) reaches directly, capped by
        capacity: unpack and weight by the residual demand vector in one
        matmul."""
        members = unpack_rows(cover_bits, self.num_users)
        avail = members.astype(np.int64) @ self._residual
        return np.minimum(np.asarray(capacities, dtype=np.int64), avail)

    # -- warm-start scope -------------------------------------------------

    def _snapshot(self) -> tuple:
        return (
            self._residual.copy(),
            list(self._names), dict(self._slots), list(self._covers),
            list(self._caps), list(self._loads),
            [dict(flow) for flow in self._flows],
            self._served,
        )

    def _restore(self, state: tuple) -> None:
        (self._residual, self._names, self._slots, self._covers,
         self._caps, self._loads, self._flows, self._served) = state

    def fork(self) -> None:
        """Open a warm-start scope (see the user engine)."""
        if self._fork_state is not None:
            raise RuntimeError("a fork is already active")
        self._fork_state = self._snapshot()

    def rollback_fork(self) -> None:
        if self._fork_state is None:
            raise RuntimeError("no active fork to roll back")
        self._restore(self._fork_state)
        self._fork_state = None

    # -- mutation API -----------------------------------------------------

    def open(
        self, station: Hashable, covered_cells: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """Open ``station``; returns the exact gain in units."""
        if station in self._slots:
            raise ValueError(f"station {station!r} already open")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        cover = _cover_array(covered_cells, self.num_users, "cell")
        slot = len(self._names)
        self._names.append(station)
        self._slots[station] = slot
        self._covers.append(cover)
        self._caps.append(capacity)
        self._loads.append(0)
        self._flows.append({})
        gain = self._open_direct(slot, capacity)
        while gain < capacity:
            pushed = self._augment(slot, capacity - gain)
            if not pushed:
                break
            gain += pushed
        obs.counter_inc("flow.try_opens")
        return gain

    def gain(
        self, station: Hashable, covered_cells: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """Exact gain of opening ``station``, engine left untouched: an
        :meth:`open` between a snapshot and its restore."""
        saved = self._snapshot()
        gain = self.open(station, covered_cells, capacity)
        self._restore(saved)
        return gain

    # -- internals --------------------------------------------------------

    def _open_direct(self, slot: int, capacity: int) -> int:
        """Direct phase: drain residual demand from covered cells in
        ascending cell order, up to capacity."""
        flow = self._flows[slot]
        residual = self._residual
        gain = 0
        for c in self._covers[slot]:
            if gain == capacity:
                break
            c = int(c)
            take = min(int(residual[c]), capacity - gain)
            if take > 0:
                residual[c] -= take
                flow[c] = flow.get(c, 0) + take
                gain += take
        if gain:
            self._loads[slot] += gain
            self._served += gain
        return gain

    def _augment(self, root: int, spare: int) -> int:
        """One augmenting path ending at the spare-capacity ``root``:
        BFS backward over the residual graph (station -> covered cell
        forward arcs, cell -> flow-owner backward arcs), then push the
        integer bottleneck along it.  Returns the units pushed (0 when no
        path exists, which certifies the current flow is maximum)."""
        covers = self._covers
        flows = self._flows
        residual = self._residual
        reached_by: dict = {}        # cell -> station that reached it
        parent_cell: dict = {}       # station -> cell it was reached via
        seen_stations = {root}
        frontier = [root]
        target = -1
        while frontier and target < 0:
            nxt: list = []
            for st in frontier:
                for c in covers[st]:
                    c = int(c)
                    if c in reached_by:
                        continue
                    reached_by[c] = st
                    if residual[c] > 0:
                        target = c
                        break
                    for other, flow in enumerate(flows):
                        if other not in seen_stations and flow.get(c, 0) > 0:
                            seen_stations.add(other)
                            parent_cell[other] = c
                            nxt.append(other)
                if target >= 0:
                    break
            frontier = nxt
        if target < 0:
            return 0
        # Walk target -> root collecting the gaining/losing flow edges and
        # the integer bottleneck.
        gains: list = []             # (station, cell) flow increases
        loses: list = []             # (station, cell) flow decreases
        bottleneck = min(spare, int(residual[target]))
        c = target
        st = reached_by[c]
        gains.append((st, c))
        while st != root:
            c = parent_cell[st]
            loses.append((st, c))
            bottleneck = min(bottleneck, flows[st][c])
            st = reached_by[c]
            gains.append((st, c))
        for st_g, c_g in gains:
            flows[st_g][c_g] = flows[st_g].get(c_g, 0) + bottleneck
        for st_l, c_l in loses:
            left = flows[st_l][c_l] - bottleneck
            if left:
                flows[st_l][c_l] = left
            else:
                del flows[st_l][c_l]
        residual[target] -= bottleneck
        self._loads[root] += bottleneck
        self._served += bottleneck
        obs.counter_inc("flow.chain_augmentations", bottleneck)
        return bottleneck


def _alternating_search(covers: list, held: list, assigned: int,
                        root: int, owners) -> tuple:
    """Layered breadth-first search over user bitsets for an alternating
    path from a free user to the station ``root``.

    ``covers`` and ``held`` are per-station cover and assigned-user
    bitsets, ``assigned`` the union of ``held``, and ``owners`` the
    ascending slots the search may pass through: every station that can
    reach a free user (:func:`_live_fixpoint`), or all of them.  A layer
    holds stations reachable from ``root``.  Expanding station ``st``
    masks its cover against the users already visited; a surviving *free*
    user ends the search at ``st`` (the leaf), while surviving assigned
    users hand reachability to their owner stations (``reach & held`` per
    station).  Returns ``(leaf, parent)``, where ``parent`` maps each
    reached station to the station it was reached from and a witness user
    it holds that that station covers; ``leaf`` is ``-1`` when no path
    exists.
    """
    parent: dict = {}
    seen = {root}
    seen_union = held[root]
    visited = 0
    frontier = [root]
    while frontier:
        nxt: list = []
        for st in frontier:
            reach = covers[st] & ~visited
            if not reach:
                continue
            if reach & ~assigned:
                return st, parent
            visited |= reach
            # Owner discovery is the expensive part (one AND per owner);
            # skip it entirely when every reached user belongs to an
            # already-seen station.
            if not reach & ~seen_union:
                continue
            for owner in owners:
                if owner in seen:
                    continue
                hit = reach & held[owner]
                if hit:
                    seen.add(owner)
                    seen_union |= held[owner]
                    parent[owner] = (st, (hit & -hit).bit_length() - 1)
                    nxt.append(owner)
        frontier = nxt
    return -1, parent


def _live_fixpoint(covers: list, held: list, assigned: int) -> tuple:
    """``(users, slots)`` of the *live* stations: those with an
    alternating path to a free user, i.e. a station that covers a free
    user, or one that covers a user held by a live station.  ``users`` is
    the union of what they hold, ``slots`` their ascending slot indices.

    Every other station is dead and stays dead (module docstring), so a
    search may skip it, and a probe whose cover holds none of ``users``
    gains only its free covered users."""
    free = ~assigned
    live = 0
    slots = []
    dead = []
    for st, cover in enumerate(covers):
        if cover & free:
            live |= held[st]
            slots.append(st)
        else:
            dead.append(st)
    grew = True
    while grew and dead:
        grew = False
        still = []
        for st in dead:
            if covers[st] & live:
                live |= held[st]
                slots.append(st)
                grew = True
            else:
                still.append(st)
        dead = still
    slots.sort()
    return live, slots


#: Up to this many bits :func:`_lowest_bits` peels one at a time — from
#: the bottom when it keeps that few, from the top when it drops that
#: few; otherwise bisection is faster at a few thousand users.
_PEEL_BITS = 6


def _lowest_bits(bits: int, k: int) -> int:
    """The ``k`` lowest set bits of ``bits`` (``k`` <= its popcount)."""
    drop = bits.bit_count() - k
    if not drop:
        return bits
    if drop <= _PEEL_BITS:
        for _ in range(drop):
            bits ^= 1 << (bits.bit_length() - 1)
        return bits
    if k <= _PEEL_BITS:
        out = 0
        for _ in range(k):
            low = bits & -bits
            out |= low
            bits ^= low
        return out
    # The shortest prefix of ``bits`` holding ``k`` set bits, by bisection
    # on its length: O(log n) masked popcounts instead of k bit steps.
    lo, hi = 0, bits.bit_length()
    while lo < hi:
        mid = (lo + hi) >> 1
        if (bits & ((1 << mid) - 1)).bit_count() >= k:
            hi = mid
        else:
            lo = mid + 1
    return bits & ((1 << lo) - 1)


def cell_demands(graph) -> "np.ndarray | None":
    """The graph's cell demands when some cell holds more than one user —
    the graphs :class:`CellAssignment` serves, with index-array covers —
    else ``None``: per-user graphs, and singleton-cell graphs, whose
    demands are all 1.  A cell of demand 1 behaves exactly like a user,
    and singleton cell indices coincide with user indices, so those run
    the :class:`IncrementalAssignment` bitset engine, the identical code
    path bit for bit."""
    demands = getattr(graph, "cell_demands", None)
    if demands is None or demands.size == 0 or int(demands.max()) <= 1:
        return None
    return demands


def new_engine_for(graph):
    """The right incremental assignment engine for a coverage graph:
    :class:`CellAssignment` when :func:`cell_demands` finds demands > 1,
    else :class:`IncrementalAssignment`."""
    demands = cell_demands(graph)
    if demands is None:
        return IncrementalAssignment(graph.num_users)
    return CellAssignment(demands)
