"""Hop-counting matroid ``M2`` (Section III-C).

Relative to the anchor set ``{v*_1..v*_s}`` and hop distances ``d_l`` in the
candidate-location graph, a subset ``V' ⊆ V`` is independent iff

* every node of ``V'`` is at most ``h_max`` hops from the anchors, and
* for each ``0 <= h <= h_max`` at most ``Q_h`` nodes of ``V'`` are at least
  ``h`` hops away (Eq. 1 supplies the ``Q_h``).

The thresholds ``{v : d_v >= h}`` are nested in ``h``, so this is a laminar
(nested) matroid; the axioms are verified by property tests.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.graphs.bfs import UNREACHABLE


class HopCountingMatroid:
    """Laminar matroid over location indices, parameterised by hop distances
    to the anchors and the bound vector ``Q_0..Q_hmax``; an independence
    oracle (``ground_set`` / ``is_independent`` / ``can_extend``)."""

    def __init__(self, hops_to_anchors: list, q_bounds: list) -> None:
        if not q_bounds:
            raise ValueError("q_bounds must contain at least Q_0")
        if any(q < 0 for q in q_bounds):
            raise ValueError(f"Q_h bounds must be non-negative, got {q_bounds}")
        for h in range(1, len(q_bounds)):
            if q_bounds[h] > q_bounds[h - 1]:
                raise ValueError(
                    "Q must be non-increasing (nested thresholds); got "
                    f"Q_{h - 1} = {q_bounds[h - 1]} < Q_{h} = {q_bounds[h]}"
                )
        self._hops = list(hops_to_anchors)
        self._q = list(q_bounds)
        self._hmax = len(q_bounds) - 1
        self._ground = frozenset(
            v for v, d in enumerate(self._hops)
            if d != UNREACHABLE and d <= self._hmax
        )

    @property
    def hmax(self) -> int:
        return self._hmax

    @property
    def q_bounds(self) -> list:
        return list(self._q)

    def hop_of(self, v: int) -> int:
        return self._hops[v]

    def ground_set(self) -> frozenset:
        return self._ground

    def is_independent(self, subset: Iterable) -> bool:
        elements = set(subset)
        if not elements <= self._ground:
            return False
        # counts[h] = number of selected nodes with hop distance >= h.
        counts = [0] * (self._hmax + 1)
        for v in elements:
            d = self._hops[v]
            for h in range(0, d + 1):
                counts[h] += 1
        return all(counts[h] <= self._q[h] for h in range(self._hmax + 1))

    def can_extend(self, independent_subset: Iterable, element: Hashable) -> bool:
        if element not in self._ground:
            return False
        subset = set(independent_subset)
        if element in subset:
            return False
        d_new = self._hops[element]
        counts = [0] * (self._hmax + 1)
        for v in subset:
            d = self._hops[v]
            for h in range(0, min(d, self._hmax) + 1):
                counts[h] += 1
        return all(
            counts[h] + 1 <= self._q[h] for h in range(0, d_new + 1)
        )

    def rank_upper_bound(self) -> int:
        return min(self._q[0], len(self._ground))


class IncrementalHopFilter:
    """Amortised feasibility oracle used inside the greedy loop.

    Maintains the per-threshold counts of the growing solution so that
    checking whether a node may be added is O(h_max) instead of O(|V'|).
    """

    def __init__(self, matroid: HopCountingMatroid) -> None:
        self._m = matroid
        self._counts = [0] * (matroid.hmax + 1)
        self._selected: set = set()

    @property
    def selected(self) -> frozenset:
        return frozenset(self._selected)

    def can_add(self, v: int) -> bool:
        if v in self._selected or v not in self._m.ground_set():
            return False
        d = self._m.hop_of(v)
        q = self._m.q_bounds
        return all(self._counts[h] + 1 <= q[h] for h in range(d + 1))

    def max_addable_hop(self) -> int:
        """Largest hop distance ``d`` such that any unselected ground node
        at distance ``d`` is currently addable, or ``-1`` if nothing is.

        The ``can_add`` predicate checks a *prefix* of thresholds
        (``h <= d_v``), so over the ground set it is monotone in ``d_v``:
        ``can_add(v)`` holds iff ``hop_of(v) <= max_addable_hop()``.  This
        turns per-candidate feasibility into one vectorised comparison
        against the hop array."""
        q = self._m.q_bounds
        counts = self._counts
        d = -1
        for h in range(len(q)):
            if counts[h] + 1 > q[h]:
                break
            d = h
        return d

    def add(self, v: int) -> None:
        if not self.can_add(v):
            raise ValueError(f"adding node {v} violates the hop matroid")
        for h in range(self._m.hop_of(v) + 1):
            self._counts[h] += 1
        self._selected.add(v)

    def feasible_candidates(self, universe: Iterable) -> list:
        """All nodes of ``universe`` currently addable (the paper's
        ``V^k_feasible``)."""
        return [v for v in universe if self.can_add(v)]
