"""Incremental capacitated user-to-station assignment with rollback.

Algorithm 2 evaluates the marginal gain of deploying UAV ``k`` at every
feasible location before committing one.  Re-solving the Section II-D flow
network from scratch for each evaluation costs O(K n^2); this engine
instead maintains a maximum assignment and, for a tentative new station,
augments it in two phases:

1. *direct phase* — grab unassigned covered users until capacity, as one
   bitset subtraction plus a batched array update;
2. *chain phase* — one alternating-path augmentation per remaining unit
   of capacity, stopping at the first failure.

The chain phase ships two interchangeable search strategies:

* ``chain="bfs"`` (default) — a layered breadth-first search over user
  *bitsets*.  Each open station keeps its cover and its currently
  assigned users as arbitrary-precision integer bitsets (bit ``u`` =
  user ``u``), so expanding a station is one word-parallel AND against
  the not-yet-visited mask, the free-user test is another, and owner
  discovery intersects the reached set with each station's assigned
  bitset — a handful of machine-word loops per layer instead of a Python
  walk over thousands of users.  Reached stations remember the *witness*
  user through which they were reached, which reconstructs the
  alternating path for reassignment.  (Python ints beat packed numpy
  arrays here: at a few thousand users a bitset AND is ~100ns with no
  per-call dispatch overhead.)
* ``chain="dfs"`` — the original Kuhn-style scalar DFS, kept as the
  serial reference implementation: differential tests pin the BFS
  engine's served counts against it (both maintain exact maximum
  assignments; only *which* equal-value assignment is realised differs).

Either way the result is an *exact* maximum assignment after every open:
each augmentation increases the max flow by exactly one, and a failed
search proves no further augmentation through the new station exists.

``try_open``/``rollback`` journal all mutations so thousands of candidate
evaluations reuse one engine.  A probe that only needs the number —
every exact-gain measurement of the greedy — calls :meth:`gain`
instead: the same search on local copies of the per-station bitsets,
pushing each path's whole bottleneck at once, with no array write, no
journal and no undo.  A max-flow value does not depend on which
augmenting paths realise it, so the count equals ``try_open``'s.
Committed opens keep the per-unit path: fast mode reads the assignment
it leaves.

On top of that, :meth:`fork` opens a *warm-start scope*: it snapshots the
committed state (flat-array copies, O(num_users)) so :meth:`rollback_fork`
restores the forked state exactly no matter how many stations were opened
in between.  The subset sweep uses this to evaluate adjacent anchor
subsets on one engine instead of rebuilding it from scratch per subset.

Batched scoring: :meth:`direct_gain_bounds` evaluates the direct-phase
lower bound for a whole candidate matrix of packed cover bitsets
(:mod:`repro.util.bits` layout) in one masked popcount — the greedy's
per-round candidate ranking.

Every entry point that takes a cover reads it through :func:`_cover_array`:
integer indices only (a boolean mask or float indices raise
``TypeError``), each distinct node counted once.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro import obs
from repro.util.bits import drop_bit, drop_row, popcount_rows

# Bit-reversal per byte: maps the little-endian bytes of an LSB-first
# integer bitset onto numpy's MSB-first packbits layout.
_BYTE_REVERSE = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8
)


def _index_array(covered: "Sequence | np.ndarray", noun: str) -> np.ndarray:
    """``covered`` as a one-dimensional int64 index array.

    A boolean mask or float indices would silently name the wrong nodes,
    so any non-integer dtype raises ``TypeError`` (an empty list, which
    numpy types as float, is allowed)."""
    cover = np.asarray(covered)
    if cover.ndim != 1:
        raise ValueError(f"covered_{noun}s must be one-dimensional")
    if cover.dtype.kind not in "iu" and cover.size:
        raise TypeError(
            f"covered_{noun}s must be integer {noun} indices, "
            f"got dtype {cover.dtype}"
        )
    return cover.astype(np.int64, copy=False)


def _cover_array(covered: "Sequence | np.ndarray", num_nodes: int,
                noun: str) -> np.ndarray:
    """``covered`` as validated int64 indices of distinct nodes.

    :func:`_index_array`, then every index must lie in ``[0, num_nodes)``
    (``IndexError`` names the first one that does not), and repeats are
    dropped, keeping first occurrences in order, so a count over the
    result counts each node once."""
    cover = _index_array(covered, noun)
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
    at most its capacity.

    ``chain`` selects the augmentation strategy (see the module docstring);
    ``None`` resolves to :attr:`DEFAULT_CHAIN`.
    """

    #: Class-level default for the chain strategy.  The bench harness flips
    #: this to ``"dfs"`` to time the scalar reference loop.
    DEFAULT_CHAIN = "bfs"

    def __init__(self, num_users: int, chain: "str | None" = None) -> None:
        if num_users < 0:
            raise ValueError(f"num_users must be non-negative, got {num_users}")
        if chain is None:
            chain = type(self).DEFAULT_CHAIN
        if chain not in ("bfs", "dfs"):
            raise ValueError(f"chain must be 'bfs' or 'dfs', got {chain!r}")
        self.num_users = num_users
        self._chain = chain
        self._assigned_id = np.full(num_users, -1, dtype=np.int64)
        self._assigned_mask = np.zeros(num_users, dtype=bool)
        self._assigned_int = 0        # bitset of assigned users (bit u = user u)
        # Station storage, slot-indexed in open order.  The pending station
        # is always the newest slot, so rollback pops from the tail.
        self._names: list = []        # slot -> station key
        self._slots: dict = {}        # station key -> slot
        self._cover_ints: list = []   # slot -> cover bitset (bfs mode)
        self._slot_ints: list = []    # slot -> assigned-user bitset (bfs mode)
        self._caps: list = []
        self._loads: list = []
        # Scalar-reference (dfs) bookkeeping only.
        self._cover_lists: list = []
        self._assigned_list: list = (
            [-1] * num_users if chain == "dfs" else []
        )
        self._visit_stamp: list = [0] * num_users if chain == "dfs" else []
        self._stamp = 0
        self._served = 0
        self._pending: "Hashable | None" = None
        self._journal: list = []
        self._fork_state: "tuple | None" = None
        self._cover_int_cache: dict = {}
        # Users held by live stations (see _live_users); None = stale.
        # Cleared by try_open (so a rollback finds it clear), rollback_fork
        # and the user edits.
        self._live: "int | None" = None

    # -- read API ---------------------------------------------------------

    @property
    def served_count(self) -> int:
        """Number of users currently assigned (the max-flow value)."""
        return self._served

    @property
    def served_bits(self) -> int:
        """The assigned users as an integer bitset (bit ``u`` = user ``u``)."""
        if self._chain == "dfs":
            return self._users_to_int(np.flatnonzero(self._assigned_mask))
        return self._assigned_int

    def station_of(self, user: int) -> "Hashable | None":
        slot = int(self._assigned_id[user])
        return None if slot < 0 else self._names[slot]

    def load_of(self, station: Hashable) -> int:
        return self._loads[self._slots[station]]

    def stations(self) -> list:
        return list(self._names)

    def assignment(self) -> dict:
        """Mapping station -> sorted list of assigned users."""
        out: dict = {station: [] for station in self._names}
        names = self._names
        for u in np.nonzero(self._assigned_mask)[0]:
            out[names[self._assigned_id[u]]].append(int(u))
        return out

    def direct_gain_bound(self, covered_users: "Sequence | np.ndarray",
                          capacity: int) -> int:
        """Lower bound on the gain of opening a station with this coverage:
        the unassigned covered users it could take directly, capped by
        capacity.  (The exact gain adds alternating-chain augmentations on
        top.)  Vectorised; O(|cover|)."""
        cover = _cover_array(covered_users, self.num_users, "user")
        if cover.size == 0 or capacity <= 0:
            return 0
        free = int(cover.size - np.count_nonzero(self._assigned_mask[cover]))
        return min(capacity, free)

    def direct_gain_bounds(
        self, cover_bits: np.ndarray, capacities: "int | np.ndarray"
    ) -> np.ndarray:
        """Batched :meth:`direct_gain_bound` over a matrix of packed cover
        bitsets (shape ``(..., words)``, :func:`numpy.packbits` layout —
        e.g. rows of :attr:`repro.core.context.SolverContext.coverage_bits`).

        One masked popcount ranks a whole candidate set at once — the
        greedy's per-round gain matrix.  Values equal calling
        :meth:`direct_gain_bound` per row."""
        bits = np.asarray(cover_bits, dtype=np.uint8)
        # The packed free-user row comes straight from the assigned-int
        # bitset: its little-endian bytes, bit-reversed per byte, are
        # exactly ``np.packbits(assigned_mask)``.  Surplus pad bits end up
        # set in the inverse but every cover row is zero there.
        nbytes = (self.num_users + 7) >> 3
        raw = np.frombuffer(
            self._assigned_int.to_bytes(nbytes, "little"), dtype=np.uint8
        )
        free_bits = ~_BYTE_REVERSE[raw]
        avail = popcount_rows(bits & free_bits)
        return np.minimum(np.asarray(capacities, dtype=np.int64), avail)

    # -- warm-start scope -------------------------------------------------

    def fork(self) -> None:
        """Open a warm-start scope: snapshot the committed state so that
        :meth:`rollback_fork` restores exactly it, whatever stations are
        opened and however users are reassigned in between.  One scope at
        a time; the scope must start with no pending station.

        The snapshot is O(num_users) flat-array copies plus shallow list
        copies of the per-station scalars — a few microseconds — so a
        subset sweep forks/rolls back per subset instead of rebuilding
        the engine (or replaying a mutation journal) each time."""
        if self._pending is not None:
            raise RuntimeError("cannot fork with a pending station")
        if self._fork_state is not None:
            raise RuntimeError("a fork is already active")
        self._fork_state = (
            self._assigned_id.copy(),
            self._assigned_mask.copy(),
            self._assigned_int,
            list(self._slot_ints),
            list(self._loads),
            len(self._names),
            self._served,
            list(self._assigned_list) if self._chain == "dfs" else None,
        )

    def rollback_fork(self) -> None:
        """Restore the exact state captured by :meth:`fork`.  A
        still-pending station is rolled back first."""
        if self._fork_state is None:
            raise RuntimeError("no active fork to roll back")
        if self._pending is not None:
            self.rollback()
        self._live = None
        (aid, amask, aint, sints, loads, nslots, served,
         alist) = self._fork_state
        self._fork_state = None
        np.copyto(self._assigned_id, aid)
        np.copyto(self._assigned_mask, amask)
        self._assigned_int = aint
        self._slot_ints = sints
        self._loads = loads
        self._served = served
        for name in self._names[nslots:]:
            del self._slots[name]
        del self._names[nslots:]
        del self._caps[nslots:]
        if self._chain == "dfs":
            self._assigned_list = alist
            del self._cover_lists[nslots:]
        else:
            del self._cover_ints[nslots:]

    def release_fork(self) -> None:
        """Close the warm-start scope keeping all its mutations."""
        if self._fork_state is None:
            raise RuntimeError("no active fork to release")
        self._fork_state = None

    # -- mutation API -----------------------------------------------------

    def try_open(
        self, station: Hashable, covered_users: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """Tentatively open ``station`` and return the exact gain in served
        users.  Must be followed by :meth:`commit` or :meth:`rollback`.
        """
        self._check_open(station, capacity)
        self._live = None
        if self._chain == "dfs":
            cover = _cover_array(covered_users, self.num_users, "user")
            slot = self._push_station(station, capacity)
            self._cover_lists.append(cover.tolist())
            gain = self._open_direct_scalar(slot, capacity)
            augment = self._augment_dfs
        else:
            cint = self._cover_int(covered_users)
            slot = self._push_station(station, capacity)
            self._cover_ints.append(cint)
            self._slot_ints.append(0)
            gain = self._open_direct_batch(slot, capacity)
            augment = self._augment_bfs
        direct = gain
        # Chain phase: alternating-path augmentations for the remainder.
        # Successive augmentations of one open usually work along the same
        # station chain, so each successful search leaves its chain behind
        # and the next round first revalidates it with a couple of bitset
        # ANDs (fresh witness users) before paying for a full search.
        chain: "list | None" = None
        while gain < capacity:
            if chain is not None and self._replay_chain(chain):
                gain += 1
                continue
            chain = [] if self._chain == "bfs" else None
            if not augment(slot, chain):
                break
            gain += 1
        obs.counter_inc("flow.try_opens")
        obs.counter_inc("flow.direct_assignments", direct)
        obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    def gain(
        self, station: Hashable, covered_users: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """The exact gain :meth:`try_open` would return, leaving the engine
        untouched: same checks, same counters, no commit or rollback.

        The gain is ``capacity`` when the free covered users fill it, and
        the free covered users alone when the cover holds no user of a
        live station (:meth:`_live_users`): no alternating path can start.
        Otherwise the chain phase runs on local copies of the bitsets
        (:meth:`_probe_chains`).  The ``chain="dfs"`` reference keeps its
        try + rollback."""
        if self._chain == "dfs":
            gain = self.try_open(station, covered_users, capacity)
            self.rollback()
            return gain
        self._check_open(station, capacity)
        cint = self._cover_int(covered_users)
        free = cint & ~self._assigned_int
        direct = min(free.bit_count(), capacity)
        gain = direct
        if direct < capacity and cint & self._live_users():
            gain = self._probe_chains(cint, free, capacity)
        if obs.is_enabled():
            obs.counter_inc("flow.try_opens")
            obs.counter_inc("flow.direct_assignments", direct)
            obs.counter_inc("flow.chain_augmentations", gain - direct)
        return gain

    def commit(self) -> None:
        """Keep the pending station and all reassignments it caused."""
        if self._pending is None:
            raise RuntimeError("no pending station to commit")
        self._pending = None
        self._journal = []

    def rollback(self) -> None:
        """Undo the pending station entirely."""
        if self._pending is None:
            raise RuntimeError("no pending station to roll back")
        for entry in reversed(self._journal):
            if entry[0] == "direct":
                self._undo_direct(entry[1], entry[2], entry[3])
            else:
                self._undo(entry[0], entry[1])
        station = self._pending
        self._pending = None
        self._journal = []
        self._pop_station(station)

    def open(
        self, station: Hashable, covered_users: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """Open a station permanently; returns the gain."""
        gain = self.try_open(station, covered_users, capacity)
        self.commit()
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
        self._assigned_id = np.append(self._assigned_id, -1)
        self._assigned_mask = np.append(self._assigned_mask, False)
        bit = 1 << user
        for slot in slots:
            self._cover_ints[slot] |= bit
        for slot in slots:
            if self._loads[slot] < self._caps[slot]:
                self._record_and_assign(user, slot)
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
        ends there.  The cover-bitset memo is cleared: its hits skip index
        validation, and the same bytes now name a shifted, smaller
        population."""
        self._check_live_edit()
        if not 0 <= user < self.num_users:
            raise IndexError(f"user {user} outside [0, {self.num_users})")
        slot = int(self._assigned_id[user])
        self._assigned_int = drop_bit(self._assigned_int, user)
        self._cover_ints = [drop_bit(bits, user) for bits in self._cover_ints]
        self._slot_ints = [drop_bit(bits, user) for bits in self._slot_ints]
        self._assigned_id = drop_row(self._assigned_id, user)
        self._assigned_mask = drop_row(self._assigned_mask, user)
        self.num_users -= 1
        self._cover_int_cache.clear()
        if slot < 0:
            return False
        self._loads[slot] -= 1
        self._served -= 1
        obs.counter_inc("flow.departure_searches")
        found = self._augment_bfs(slot)
        self._journal = []
        if found:
            obs.counter_inc("flow.chain_augmentations")
        return found

    def _check_live_edit(self) -> None:
        if self._chain != "bfs":
            raise RuntimeError("user edits need chain='bfs'")
        if self._pending is not None:
            raise RuntimeError(
                f"station {self._pending!r} is pending; commit or rollback first"
            )
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
                            self._record_and_assign(taken, other)
                            other = prev
                        self._served += 1
                        return True
                    nxt.append(other)
            frontier = nxt
        return False

    # -- internals --------------------------------------------------------

    def _check_open(self, station: Hashable, capacity: int) -> None:
        if self._pending is not None:
            raise RuntimeError(
                f"station {self._pending!r} is pending; commit or rollback first"
            )
        if station in self._slots:
            raise ValueError(f"station {station!r} already open")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")

    def _cover_int(self, covered_users: "Sequence | np.ndarray") -> int:
        """The cover as an integer bitset.  Cover bitsets recur across a
        sweep (same location, same radio), so the index-array -> int
        conversion is memoised; a cache hit also proves the indices were
        validated before."""
        cover = _index_array(covered_users, "user")
        key = cover.tobytes()
        cint = self._cover_int_cache.get(key)
        if cint is None:
            cint = self._users_to_int(
                _cover_array(cover, self.num_users, "user")
            )
            self._cover_int_cache[key] = cint
        return cint

    def _push_station(self, station: Hashable, capacity: int) -> int:
        slot = len(self._names)
        self._pending = station
        self._journal = []
        self._names.append(station)
        self._slots[station] = slot
        self._caps.append(capacity)
        self._loads.append(0)
        return slot

    def _users_to_int(self, users: np.ndarray) -> int:
        """User-index array -> integer bitset (bit ``u`` = user ``u``)."""
        mask = np.zeros(self.num_users, dtype=bool)
        if users.size:
            mask[users] = True
        return int.from_bytes(
            np.packbits(mask, bitorder="little").tobytes(), "little"
        )

    def _int_to_mask(self, bitset: int) -> np.ndarray:
        """Integer bitset -> boolean user mask."""
        nbytes = (self.num_users + 7) >> 3
        raw = np.frombuffer(bitset.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(
            raw, count=self.num_users, bitorder="little"
        ).view(bool)

    def _int_to_users(self, bitset: int) -> np.ndarray:
        """Integer bitset -> sorted user-index array."""
        return np.nonzero(self._int_to_mask(bitset))[0]

    def _open_direct_batch(self, slot: int, capacity: int) -> int:
        """Direct phase as one bitset subtraction: every free covered user
        up to capacity, lowest user indices first."""
        if capacity == 0:
            return 0
        take = self._cover_ints[slot] & ~self._assigned_int
        if not take:
            return 0
        k = take.bit_count()
        if k > capacity:
            take = self._users_to_int(self._int_to_users(take)[:capacity])
            k = capacity
        mask = self._int_to_mask(take)
        self._journal.append(("direct", slot, take, k))
        self._assigned_id[mask] = slot
        self._assigned_mask |= mask
        self._assigned_int |= take
        self._slot_ints[slot] |= take
        self._loads[slot] += k
        self._served += k
        return k

    def _open_direct_scalar(self, slot: int, capacity: int) -> int:
        """Scalar-reference direct phase: first ``capacity`` unassigned
        users in cover order."""
        assigned = self._assigned_list
        gain = 0
        for u in self._cover_lists[slot]:
            if gain == capacity:
                break
            if assigned[u] < 0:
                self._record_and_assign(u, slot)
                self._served += 1
                gain += 1
        return gain

    def _augment_bfs(self, root: int, chain: "list | None" = None) -> bool:
        """One unit of augmentation ending at ``root`` (which has spare
        capacity): :func:`_alternating_search`, then the free user joins
        the leaf and each station up the parent chain takes its witness
        user from its child.  A failed search proves no augmentation
        through ``root`` exists — same exact maximum as the scalar DFS
        reference; only which equal-value assignment is realised may
        differ.
        """
        slot_ints = self._slot_ints
        leaf, parent = _alternating_search(
            self._cover_ints, slot_ints, self._assigned_int, root
        )
        if leaf < 0:
            return False
        # Inlined _record_and_assign: this is the hottest path of every
        # committed open.
        journal = self._journal
        aid = self._assigned_id
        loads = self._loads
        st = leaf
        free = self._cover_ints[st] & ~self._assigned_int
        user = (free & -free).bit_length() - 1
        journal.append((user, -1))
        slot_ints[st] |= 1 << user
        self._assigned_int |= 1 << user
        self._assigned_mask[user] = True
        aid[user] = st
        loads[st] += 1
        if chain is not None:
            chain.append(st)
        while st != root:
            ps, u = parent[st]
            journal.append((u, st))
            bit = 1 << u
            slot_ints[ps] |= bit
            slot_ints[st] &= ~bit
            loads[st] -= 1
            loads[ps] += 1
            aid[u] = ps
            st = ps
            if chain is not None:
                chain.append(st)
        self._served += 1
        return True

    def _live_users(self) -> int:
        """The users held by *live* stations: those with an alternating
        path to a free user, i.e. a station that covers a free user, or
        one that covers a user held by a live station.  Computed once per
        engine state, as a fixpoint over the open stations.

        A probe whose cover holds none of these users, and whose free
        covered users fall short of its capacity, gains only those free
        users: every station its search can reach is dead, and taking the
        free users only shrinks the free set."""
        if self._live is None:
            covers, held = self._cover_ints, self._slot_ints
            free = ~self._assigned_int
            live = 0
            dead = []
            for st, cover in enumerate(covers):
                if cover & free:
                    live |= held[st]
                else:
                    dead.append(st)
            grew = True
            while grew:
                grew = False
                still = []
                for st in dead:
                    if covers[st] & live:
                        live |= held[st]
                        grew = True
                    else:
                        still.append(st)
                dead = still
            self._live = live
        return self._live

    def _probe_chains(self, cover: int, free: int, capacity: int) -> int:
        """The gain of a station with cover bitset ``cover`` whose free
        covered users ``free`` fall short of ``capacity``, counted on
        local copies of the engine state.

        The station (the root) takes ``free``, then each
        :func:`_alternating_search` that finds a path pushes its whole
        bottleneck at once: the remaining capacity, the free users the
        leaf covers, and for every link the users the child holds that
        the parent covers.  Pushing ``b`` units moves ``b`` such users
        one station up each link, so every unit is a valid augmenting
        path; the search that fails certifies a maximum, as in
        :meth:`try_open`."""
        covers = self._cover_ints + [cover]
        held = self._slot_ints + [free]
        assigned = self._assigned_int | free
        root = len(covers) - 1
        gain = free.bit_count()
        while gain < capacity:
            leaf, parent = _alternating_search(covers, held, assigned, root)
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

    def _replay_chain(self, chain: list) -> bool:
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
        leaf = chain[0]
        free = covers[leaf] & ~self._assigned_int
        if not free:
            return False
        wits = []
        for i in range(len(chain) - 1):
            hit = covers[chain[i + 1]] & slot_ints[chain[i]]
            if not hit:
                return False
            wits.append((hit & -hit).bit_length() - 1)
        journal = self._journal
        aid = self._assigned_id
        loads = self._loads
        user = (free & -free).bit_length() - 1
        journal.append((user, -1))
        slot_ints[leaf] |= 1 << user
        self._assigned_int |= 1 << user
        self._assigned_mask[user] = True
        aid[user] = leaf
        loads[leaf] += 1
        for i, u in enumerate(wits):
            child = chain[i]
            parent = chain[i + 1]
            journal.append((u, child))
            bit = 1 << u
            slot_ints[parent] |= bit
            slot_ints[child] &= ~bit
            loads[child] -= 1
            loads[parent] += 1
            aid[u] = parent
        self._served += 1
        return True

    def _augment_dfs(self, root: int, chain: "list | None" = None) -> bool:
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
                    self._record_and_assign(u, station)
                    for depth in range(len(frames) - 1, 0, -1):
                        child = frames[depth]
                        parent_station = frames[depth - 1][0]
                        self._record_and_assign(child[2], parent_station)
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

    def _record_and_assign(self, user: int, slot: int) -> None:
        old = int(self._assigned_id[user])
        if self._pending is not None:
            self._journal.append((user, old))
        if self._chain == "dfs":
            self._assigned_list[user] = slot
        else:
            bit = 1 << user
            self._slot_ints[slot] |= bit
            if old >= 0:
                self._slot_ints[old] &= ~bit
            else:
                self._assigned_int |= bit
        if old >= 0:
            self._loads[old] -= 1
        else:
            self._assigned_mask[user] = True
        self._assigned_id[user] = slot
        self._loads[slot] += 1

    def _undo(self, user: int, old: int) -> None:
        cur = int(self._assigned_id[user])
        self._loads[cur] -= 1
        self._assigned_id[user] = old
        if self._chain == "dfs":
            self._assigned_list[user] = old
        else:
            bit = 1 << user
            self._slot_ints[cur] &= ~bit
            if old >= 0:
                self._slot_ints[old] |= bit
            else:
                self._assigned_int &= ~bit
        if old >= 0:
            self._loads[old] += 1
        else:
            self._assigned_mask[user] = False
            self._served -= 1

    def _undo_direct(self, slot: int, bitset: int, k: int) -> None:
        mask = self._int_to_mask(bitset)
        self._assigned_id[mask] = -1
        self._assigned_mask &= ~mask
        self._assigned_int &= ~bitset
        self._slot_ints[slot] &= ~bitset
        self._loads[slot] -= k
        self._served -= k

    def _pop_station(self, station: Hashable) -> None:
        slot = self._slots.pop(station)
        assert slot == len(self._names) - 1, (
            "only the newest station can be removed"
        )
        self._names.pop()
        self._caps.pop()
        self._loads.pop()
        if self._chain == "dfs":
            self._cover_lists.pop()
        else:
            self._cover_ints.pop()
            self._slot_ints.pop()


class CellAssignment:
    """Incremental capacitated *demand-cell*-to-station assignment.

    The aggregated counterpart of :class:`IncrementalAssignment`: instead
    of unit-supply users, each node is a demand cell with an integer
    supply (its member count), and a station may draw multiple units from
    one cell (flow network ``source -(demand)-> cell -> station
    -(capacity)-> sink``).  The served count is the max-flow value in
    *units*, i.e. users.

    Same contract as the user engine: after every :meth:`try_open` /
    :meth:`open` the maintained flow is an exact maximum (each augmenting
    path is found from the previous maximum, so the incremental invariant
    of max flow applies); ``try_open``/``rollback`` journal by snapshot,
    and :meth:`fork` opens the warm-start scope the subset sweep uses.

    Cell populations are orders of magnitude smaller than user
    populations (that is the point of aggregating), so the engine favours
    simplicity over the user engine's bitset micro-optimisations:
    snapshots are O(cells + flow entries), augmentation is a plain BFS
    over the residual graph with integer bottlenecks.
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
        self._pending: "Hashable | None" = None
        self._saved: "tuple | None" = None
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
        """Mapping station -> {cell: units} (committed + pending)."""
        return {
            name: dict(flow) for name, flow in zip(self._names, self._flows)
        }

    def assignment(self) -> dict:
        """Alias of :meth:`flows` (API parity with the user engine)."""
        return self.flows()

    def direct_gain_bound(self, covered_cells: "Sequence | np.ndarray",
                          capacity: int) -> int:
        """Residual demand reachable directly, capped by capacity."""
        cover = _cover_array(covered_cells, self.num_users, "cell")
        if cover.size == 0 or capacity <= 0:
            return 0
        return min(int(capacity), int(self._residual[cover].sum()))

    def direct_gain_bounds(
        self, cover_bits: np.ndarray, capacities: "int | np.ndarray"
    ) -> np.ndarray:
        """Batched :meth:`direct_gain_bound` over packed cover bitsets
        (one bit per *cell*, :func:`numpy.packbits` layout): unpack and
        weight by the residual demand vector in one matmul."""
        bits = np.asarray(cover_bits, dtype=np.uint8)
        lead = bits.shape[:-1]
        flat = bits.reshape(-1, bits.shape[-1])
        members = np.unpackbits(flat, axis=1, count=self.num_users)
        avail = members.astype(np.int64) @ self._residual
        return np.minimum(
            np.asarray(capacities, dtype=np.int64), avail.reshape(lead)
        )

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
        if self._pending is not None:
            raise RuntimeError("cannot fork with a pending station")
        if self._fork_state is not None:
            raise RuntimeError("a fork is already active")
        self._fork_state = self._snapshot()

    def rollback_fork(self) -> None:
        if self._fork_state is None:
            raise RuntimeError("no active fork to roll back")
        if self._pending is not None:
            self.rollback()
        self._restore(self._fork_state)
        self._fork_state = None

    def release_fork(self) -> None:
        if self._fork_state is None:
            raise RuntimeError("no active fork to release")
        self._fork_state = None

    # -- mutation API -----------------------------------------------------

    def try_open(
        self, station: Hashable, covered_cells: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        """Tentatively open ``station``; returns the exact gain in units."""
        if self._pending is not None:
            raise RuntimeError(
                f"station {self._pending!r} is pending; commit or rollback first"
            )
        if station in self._slots:
            raise ValueError(f"station {station!r} already open")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        cover = _cover_array(covered_cells, self.num_users, "cell")
        self._saved = self._snapshot()
        self._pending = station
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
        """Exact gain of opening ``station``, engine left untouched (a
        try + rollback)."""
        gain = self.try_open(station, covered_cells, capacity)
        self.rollback()
        return gain

    def commit(self) -> None:
        if self._pending is None:
            raise RuntimeError("no pending station to commit")
        self._pending = None
        self._saved = None

    def rollback(self) -> None:
        if self._pending is None:
            raise RuntimeError("no pending station to roll back")
        self._restore(self._saved)
        self._pending = None
        self._saved = None

    def open(
        self, station: Hashable, covered_cells: "Sequence | np.ndarray",
        capacity: int
    ) -> int:
        gain = self.try_open(station, covered_cells, capacity)
        self.commit()
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
                        root: int) -> tuple:
    """Layered breadth-first search over user bitsets for an alternating
    path from a free user to the station ``root``.

    ``covers`` and ``held`` are per-station cover and assigned-user
    bitsets, ``assigned`` the union of ``held``.  A layer holds stations
    reachable from ``root``.  Expanding station ``st`` masks its cover
    against the users already visited; a surviving *free* user ends the
    search at ``st`` (the leaf), while surviving assigned users hand
    reachability to their owner stations (``reach & held`` per station).
    Returns ``(leaf, parent)``, where ``parent`` maps each reached station
    to the station it was reached from and a witness user it holds that
    that station covers; ``leaf`` is ``-1`` when no path exists.
    """
    parent: dict = {}
    seen = {root}
    seen_union = held[root]
    visited = 0
    frontier = [root]
    num_slots = len(covers)
    while frontier:
        nxt: list = []
        for st in frontier:
            reach = covers[st] & ~visited
            if not reach:
                continue
            if reach & ~assigned:
                return st, parent
            visited |= reach
            # Owner discovery is the expensive part (one AND per open
            # station); skip it entirely when every reached user belongs
            # to an already-seen station.
            if not reach & ~seen_union:
                continue
            for owner in range(num_slots):
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


def _lowest_bits(bits: int, k: int) -> int:
    """The ``k`` lowest set bits of ``bits`` (``k`` <= its popcount)."""
    if k == bits.bit_count():
        return bits
    out = 0
    for _ in range(k):
        low = bits & -bits
        out |= low
        bits ^= low
    return out


def new_engine_for(graph, chain: "str | None" = None):
    """The right incremental assignment engine for a coverage graph.

    Per-user graphs — and singleton-cell graphs, whose demands are all
    1 — get the :class:`IncrementalAssignment` bitset engine: a cell of
    demand 1 behaves exactly like a user, and singleton cell indices
    coincide with user indices, so the aggregated solve runs the
    identical code path bit for bit.  Only graphs carrying a demand > 1
    need :class:`CellAssignment`."""
    demands = getattr(graph, "cell_demands", None)
    if demands is None or demands.size == 0 or int(demands.max()) <= 1:
        return IncrementalAssignment(graph.num_users, chain=chain)
    return CellAssignment(demands)
