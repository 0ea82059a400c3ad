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
"""

from __future__ import annotations

import numpy as np

from repro import obs


class LazyGains:
    """Exact marginal gains on ``engine`` with the stale-gain bounds of
    every measurement it made.

    ``counter`` names the observability counter each oracle call (one
    probe) increments."""

    def __init__(self, engine, graph, fleet: list, counter: str) -> None:
        self.engine = engine
        self.graph = graph
        self.fleet = fleet
        self.counter = counter
        self._capacity = np.array([uav.capacity for uav in fleet],
                                  dtype=np.int64)
        # radio signature -> (which fleet UAVs that radio dominates, stale
        # gain per location, capacity that measured it; -1 = never)
        self._stale: dict = {}

    def static(self, k: int, locs: np.ndarray,
               context: "object | None" = None) -> np.ndarray:
        """``min(capacity, coverage weight)`` of UAV ``k`` at each of
        ``locs``: its gain with nothing else open.  Read from the
        :class:`~repro.core.context.SolverContext`'s counts when one is
        given (same values as the graph's)."""
        uav = self.fleet[k]
        if context is not None:
            count = context.counts_for_uav(k)[locs].astype(np.int64)
        else:
            count = np.array(
                [self.graph.coverage_weight(v, uav) for v in locs.tolist()],
                dtype=np.int64,
            )
        return np.minimum(uav.capacity, count)

    def bounds(self, ks, locs: np.ndarray, static: np.ndarray) -> np.ndarray:
        """Upper bounds on the exact gain of each candidate ``(ks[i],
        locs[i])``: ``static`` tightened by every stale gain a dominating
        UAV left at the location."""
        bound = np.asarray(static, dtype=np.int64)
        for within, gains, caps in self._stale.values():
            valid = within[ks] & (caps[locs] >= self._capacity[ks])
            bound = np.where(valid, np.minimum(bound, gains[locs]), bound)
        return bound

    def measure(self, k: int, v: int) -> int:
        """Exact gain of opening UAV ``k`` at location ``v`` (one engine
        probe), remembered as a stale bound for later rounds."""
        uav = self.fleet[k]
        obs.counter_inc(self.counter)
        gain = self.engine.gain(
            (k, v), self.graph.coverable_array(v, uav), uav.capacity
        )
        sig = self.graph.radio_signature(uav)
        entry = self._stale.get(sig)
        if entry is None:
            m = self.graph.num_locations
            within = np.array(
                [self.graph.radio_within(other, uav) for other in self.fleet]
            )
            entry = (within, np.zeros(m, dtype=np.int64),
                     np.full(m, -1, dtype=np.int64))
            self._stale[sig] = entry
        entry[1][v] = gain
        entry[2][v] = uav.capacity
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
        ks = np.broadcast_to(ks, (n,)).tolist()
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
