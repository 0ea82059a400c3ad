"""Lazy (Minoux) exact marginal gains — the one exact-gain argmax.

Every placement step that picks by *exact* marginal gain — the anchored
greedy, the pair greedy, relay staffing and leftover augmentation — runs
:meth:`LazyGains.argmax`: candidates sorted by ``(-upper bound, tie
rank)``, each one measured by the flow engine's count-only probe
(:meth:`~repro.flow.bipartite.IncrementalAssignment.gain`), and the scan
stops at the first candidate whose bound can no longer beat the
best ``(gain, tie rank)`` found so far.  The winner is exactly the eager
scan's; only the oracle calls change.

The upper bound is ``min(static, stale)``:

* ``static`` is ``min(capacity, coverage weight)``, the gain with nothing
  else open;
* ``stale`` is the exact gain measured earlier at the same location by a
  UAV that *dominates* the current one: capacity no smaller and a radio
  whose cover set contains the current one's
  (:meth:`repro.network.coverage.CoverageGraph.radio_within`).  Opening a
  smaller cover with less capacity gains no more than the dominating
  station would gain now, and the max-flow value is submodular over the
  opened stations, so that is at most what it gained when fewer were
  open.  Incomparable radios fall back to the static bound.

The stale bound is valid only while the engine's open stations are a
superset of those open at the measurement, so a :class:`LazyGains` lives
for one greedy or connect call on one engine (and one fork): inside it
every probe leaves the engine as it was and every pick is committed.  A
zero bound needs no measurement at all — gains are never negative.

What does not depend on the engine state lives in a :class:`CoverTable`,
built once per problem and kept by the
:class:`~repro.core.context.SolverContext`
(:meth:`~repro.core.context.SolverContext.cover_table`), so every greedy
and connect call of a solve shares one: each UAV's cover at each
location in the form its engine takes — an integer bitset for the user
engine, an index array for the demand-cell engine — and which UAVs
dominate which.  Probes and committed opens both read their covers from
it.  A caller with no context (the connectivity-free baseline) builds
its own table and reads static bounds from the graph.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.flow.bipartite import cell_demands


#: The stale gain of a (UAV, location) never measured: no bound.
_NEVER = np.iinfo(np.int64).max


class CoverTable:
    """The covers and gain dominance of one problem's fleet.

    :meth:`cover` is the cover of UAV ``k`` at a location, fetched from
    the graph on first use and kept per radio (UAVs sharing a radio share
    it).  ``dominated[k]`` lists the UAVs, ``k`` among them, whose gain
    at a location can never exceed ``k``'s there: capacity no larger and
    a radio contained in ``k``'s."""

    def __init__(self, graph, fleet: list) -> None:
        self.graph = graph
        self.fleet = fleet
        radios: dict = {}
        self.radio = [
            radios.setdefault(graph.radio_signature(uav), len(radios))
            for uav in fleet
        ]
        heads = [fleet[self.radio.index(r)] for r in range(len(radios))]
        within = np.array(
            [[graph.radio_within(other, head) for other in fleet]
             for head in heads], dtype=bool,
        )
        capacity = np.array([uav.capacity for uav in fleet], dtype=np.int64)
        dominates = (within[self.radio]
                     & (capacity[None, :] <= capacity[:, None]))
        self.dominated = [np.flatnonzero(row).tolist() for row in dominates]
        self._rows = [[None] * graph.num_locations for _ in heads]
        self._fetch = (graph.coverable_int if cell_demands(graph) is None
                       else graph.coverable_array)

    def serves(self, problem) -> bool:
        """Whether this table was built for ``problem``'s graph and fleet."""
        return self.graph is problem.graph and self.fleet is problem.fleet

    def cover(self, k: int, v: int):
        """UAV ``k``'s cover at location ``v``, as its engine takes it."""
        row = self._rows[self.radio[k]]
        cover = row[v]
        if cover is None:
            cover = row[v] = self._fetch(v, self.fleet[k])
        return cover


class LazyGains:
    """Exact marginal gains on ``engine`` with the stale-gain bounds of
    every measurement it made.

    ``counter`` names the observability counter each oracle call (one
    probe) increments.  ``table`` is the :class:`CoverTable` of ``graph``
    and ``fleet`` to read covers from, built here when not given."""

    def __init__(self, engine, graph, fleet: list, counter: str,
                 table: "CoverTable | None" = None) -> None:
        self.engine = engine
        self.table = CoverTable(graph, fleet) if table is None else table
        self.counter = counter
        # Per UAV and location: the least gain a UAV dominating it
        # measured there.
        m = self.table.graph.num_locations
        self._stale = [[_NEVER] * m for _ in fleet]

    def static(self, k: int, locs: np.ndarray,
               context: "object | None" = None) -> np.ndarray:
        """``min(capacity, coverage weight)`` of UAV ``k`` at each of
        ``locs``: its gain with nothing else open.  Read from the
        :class:`~repro.core.context.SolverContext`'s counts when one is
        given (same values as the graph's)."""
        uav = self.table.fleet[k]
        if context is not None:
            count = context.counts_for_uav(k)[locs].astype(np.int64)
        else:
            graph = self.table.graph
            count = np.array(
                [graph.coverage_weight(v, uav) for v in locs.tolist()],
                dtype=np.int64,
            )
        return np.minimum(uav.capacity, count)

    def bounds(self, ks, locs: np.ndarray, static: np.ndarray) -> np.ndarray:
        """Upper bounds on the exact gain of each candidate ``(ks[i],
        locs[i])``: ``static`` tightened by every stale gain a dominating
        UAV left at the location."""
        if np.ndim(ks) == 0:
            stale = np.array(self._stale[ks])[locs]
        else:
            stale = np.array(self._stale)[ks, locs]
        return np.minimum(np.asarray(static, dtype=np.int64), stale)

    def measure(self, k: int, v: int) -> int:
        """Exact gain of opening UAV ``k`` at location ``v`` (one engine
        probe), remembered as a stale bound for later rounds."""
        table = self.table
        capacity = table.fleet[k].capacity
        obs.counter_inc(self.counter)
        gain = self.engine.gain((k, v), table.cover(k, v), capacity)
        for j in table.dominated[k]:
            row = self._stale[j]
            if gain < row[v]:
                row[v] = gain
        return gain

    def argmax(self, ks, locs: np.ndarray, static: np.ndarray,
               tie_keys: tuple, floor: int = -1) -> int:
        """Index of the candidate ``(ks[i], locs[i])`` with the largest
        exact gain, ties going to the lowest rank under ``tie_keys``
        (:func:`numpy.lexsort` keys, primary last); ``-1`` when no gain
        beats ``floor``.  ``ks`` is one UAV index or one per candidate,
        ``static`` their :meth:`static` bounds."""
        n = len(locs)
        bounds = self.bounds(ks, locs, static)
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort(tie_keys)] = np.arange(n)
        order = np.lexsort((rank, -bounds)).tolist()
        ks = [ks] * n if np.ndim(ks) == 0 else ks.tolist()
        locs, bounds, rank = locs.tolist(), bounds.tolist(), rank.tolist()
        best, best_gain = -1, floor
        for i in order:
            bound = bounds[i]
            if bound < best_gain or (
                bound == best_gain and (best < 0 or rank[best] < rank[i])
            ):
                break  # sorted: no later candidate can beat the best
            gain = self.measure(ks[i], locs[i]) if bound > 0 else 0
            if gain > best_gain or (
                gain == best_gain and best >= 0 and rank[i] < rank[best]
            ):
                best, best_gain = i, gain
        return best
