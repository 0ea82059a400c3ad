"""Segment arithmetic of Section III: Eq. 1 (``Q_h``), Eq. 2 (the relay
bound ``g``), and Algorithm 1 (optimal ``L_max`` and segment sizes
``p*_1..p*_{s+1}``).

Notation: a sub-path ``P_j`` of the Eulerian tour contains ``L`` nodes, of
which ``s`` are the chosen anchors ``v*_1..v*_s``; the anchors cut ``P_j``
into ``s + 1`` segments with ``p_1, ..., p_{s+1}`` interior nodes
(``sum(p) = L - s``).  ``p_1`` and ``p_{s+1}`` hang off the path's ends
(reachable from one anchor only), the middle segments sit between two
anchors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from repro import obs


def _validate_p(p: list) -> None:
    if len(p) < 2:
        raise ValueError(
            f"p must have s+1 >= 2 entries (s >= 1), got {len(p)}"
        )
    if any(x < 0 for x in p):
        raise ValueError(f"segment sizes must be non-negative, got {p}")


def hmax_of(p: list) -> int:
    """``h_max = max(p_1, p_{s+1}, max_{i=2..s} ceil(p_i / 2))`` — the
    largest hop distance any sub-path node can have from the anchor set."""
    _validate_p(p)
    values = [p[0], p[-1]]
    values.extend(math.ceil(pi / 2) for pi in p[1:-1])
    return max(values)


def q_bounds(length: int, p: list) -> list:
    """Eq. 1: ``[Q_0, Q_1, ..., Q_hmax]``.

    ``Q_h`` is the number of nodes of the sub-path at least ``h`` hops from
    the anchors: ``Q_0 = L``; for ``h >= 1`` an end segment of ``p`` nodes
    contributes ``max(p - (h-1), 0)`` and a middle segment contributes
    ``max(p - 2(h-1), 0)`` (its nodes are reached from both sides).
    """
    _validate_p(p)
    if sum(p) > length:
        raise ValueError(
            f"segment sizes {p} sum to {sum(p)} > L = {length}"
        )
    out = [length]
    for h in range(1, hmax_of(p) + 1):
        q_h = max(p[0] - (h - 1), 0) + max(p[-1] - (h - 1), 0)
        q_h += sum(max(pi - 2 * (h - 1), 0) for pi in p[1:-1])
        out.append(q_h)
    return out


def _middle_cost(pi: int) -> int:
    """Relay nodes needed to hook up a middle segment of ``pi`` interior
    nodes: ``(p_i^2 + 2 p_i + (p_i mod 2)) / 4`` (always an integer)."""
    numerator = pi * pi + 2 * pi + (pi % 2)
    assert numerator % 4 == 0, f"non-integral middle cost for p_i = {pi}"
    return numerator // 4


def _end_cost(pi: int) -> int:
    """Relay nodes for an end segment: the triangular number
    ``p_i (p_i + 1) / 2``."""
    return pi * (pi + 1) // 2


def relay_bound(p: list) -> int:
    """Eq. 2: upper bound ``g(L, p_1..p_{s+1})`` on the number of UAVs in the
    connected subgraph ``G_j`` built around a feasible solution.

    ``g = s + sum_{i=2..s} p_i + end(p_1) + sum_{i=2..s} middle(p_i)
    + end(p_{s+1})``.  (``L`` enters only through ``sum(p) = L - s``, so it
    is not a separate argument.)
    """
    _validate_p(p)
    s = len(p) - 1
    return (
        s
        + sum(p[1:-1])
        + _end_cost(p[0])
        + sum(_middle_cost(pi) for pi in p[1:-1])
        + _end_cost(p[-1])
    )


@dataclass(frozen=True)
class SegmentPlan:
    """Output of Algorithm 1: the largest feasible sub-path length and the
    segment split minimising the relay bound."""

    s: int
    num_uavs: int
    lmax: int
    p: tuple
    relay_bound: int

    def q_bounds(self) -> list:
        """Eq. 1 bounds ``Q_0..Q_hmax`` for this plan."""
        return q_bounds(self.lmax, list(self.p))

    @property
    def hmax(self) -> int:
        return hmax_of(list(self.p))


def _best_split(length: int, s: int) -> "tuple[int, tuple] | None":
    """Minimum relay bound over the balanced splits Algorithm 1 scans for a
    fixed ``L``; returns ``(g, p)`` or ``None`` if no split exists.

    Middle segments take value ``p`` or ``p + 1`` (``j`` of them one
    larger); the two end segments split the remainder as evenly as possible
    (paper's structural lemma: an optimal split is balanced).
    """
    interior = length - s
    if interior < 0:
        return None
    best: "tuple[int, tuple] | None" = None
    if s == 1:
        # No middle segments: all interior nodes go to the two ends.
        p1 = math.ceil(interior / 2)
        p2 = interior - p1
        candidate = (p1, p2)
        g = relay_bound(list(candidate))
        return (g, candidate)
    for base, bumped in product(range(interior + 1), range(max(s - 1, 1))):
        middle_total = (s - 1) * base + bumped
        if middle_total > interior:
            continue
        middles = [base + 1] * bumped + [base] * (s - 1 - bumped)
        remainder = interior - middle_total
        p1 = math.ceil(remainder / 2)
        ps1 = remainder - p1
        p = tuple([p1] + middles + [ps1])
        g = relay_bound(list(p))
        if best is None or g < best[0]:
            best = (g, p)
    return best


def optimal_segments(num_uavs: int, s: int) -> SegmentPlan:
    """Algorithm 1: binary-search the largest ``L`` whose best split fits
    within ``num_uavs`` UAVs, i.e. ``min_p g(L, p) <= K``.

    The search range is ``[s, K]``; we use an exclusive upper bound ``K+1``
    so that ``L = K`` itself is tested (the paper's ``L_ub = K`` can miss it
    when ``K <= s + 2``; this is a strict improvement, never a loss).
    Runtime ``O(s^2 K log K)`` as in the paper.
    """
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if num_uavs < s:
        raise ValueError(
            f"need at least s = {s} UAVs to place the anchors, got {num_uavs}"
        )
    # L = s is always feasible: no interior nodes, g = s <= K.
    with obs.span("segments.optimal", s=s, num_uavs=num_uavs):
        obs.counter_inc("segments.plans")
        best_l = s
        best_split = _best_split(s, s)
        assert best_split is not None
        lo, hi = s, num_uavs + 1  # invariant: lo feasible, hi infeasible-or-bound
        while lo + 1 < hi:
            obs.counter_inc("segments.search_steps")
            mid = (lo + hi) // 2
            split = _best_split(mid, s)
            if split is not None and split[0] <= num_uavs:
                lo = mid
                best_l, best_split = mid, split
            else:
                hi = mid
        g, p = best_split
    return SegmentPlan(s=s, num_uavs=num_uavs, lmax=best_l, p=p, relay_bound=g)

