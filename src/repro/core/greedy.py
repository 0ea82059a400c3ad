"""The anchored submodular greedy — Algorithm 2, lines 5-12.

For a fixed anchor set ``V*_j`` the greedy deploys UAVs in decreasing
capacity order; in the k-th iteration it places the k-th UAV at the hop-
matroid-feasible location with the largest *exact* marginal gain in served
users (marginal gains are computed with the incremental max-flow engine,
so they equal re-solving Section II-D from scratch).

Performance notes (results are identical to the naive implementation):

* exact gains come from one lazy (Minoux) scan,
  :meth:`repro.core.lazy.LazyGains.argmax`: candidates in decreasing
  upper-bound order, stopping once no bound can beat the best exact gain
  found.  The bound is ``min(capacity, |coverable|)``, tightened by the
  *stale* gain an earlier round of the same call measured at the same
  location.  The stale gain bounds the current UAV when that earlier UAV
  dominates it — capacity no smaller, user range no longer, transmit
  power plus antenna gain no higher — because the cover set is then a
  subset and the max-flow value is submodular over the opened stations.
  Algorithm 2 deploys in decreasing capacity order, so the bound holds
  throughout one radio class and from a stronger radio class to a weaker
  one; a round whose radio is incomparable falls back to the static
  bound;
* in the first iteration the gain is exactly ``min(capacity, |coverable|)``
  (no other stations to interact with), so no flow computation is needed;
* with a :class:`~repro.core.context.SolverContext` the candidate set is
  numpy-native: matroid feasibility is one comparison against the hop
  array (:meth:`IncrementalHopFilter.max_addable_hop`), static bounds one
  gather from the context's coverage counts, and fast-mode gains one
  masked popcount over its packed coverage matrix
  (:meth:`IncrementalAssignment.direct_gain_bounds`).

Zero-gain ties are broken in favour of anchors, then lowest location index
(determinism).  The counting bounds ``Q_h`` guarantee all ``s`` anchors are
in the solution at termination; this is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.lazy import CoverTable, LazyGains
from repro.core.problem import ProblemInstance
from repro.core.segments import SegmentPlan
from repro.flow.bipartite import IncrementalAssignment, new_engine_for
from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter


@dataclass
class GreedyResult:
    """Outcome of the anchored greedy for one anchor set."""

    chosen: list            # [(uav_index, location_index)] in deployment order
    engine: IncrementalAssignment  # live assignment state over the chosen stations
    served: int              # users served by the chosen stations


def _pick_max(cand: np.ndarray, gains: np.ndarray,
              cand_anchor: np.ndarray) -> "tuple[int, int]":
    """Vectorised winner rule over ascending candidate indices: among the
    max-gain candidates prefer anchors, then the lowest location index —
    exactly what the scalar scan's ``gain > best or (tie and anchor)``
    update converges to."""
    best_gain = int(gains.max())
    ties = gains == best_gain
    tie_anchor = ties & cand_anchor
    pick = tie_anchor if tie_anchor.any() else ties
    return int(cand[pick][0]), best_gain


def anchored_greedy(
    problem: ProblemInstance,
    anchors: list,
    plan: SegmentPlan,
    order: "list | None" = None,
    gain_mode: str = "exact",
    context: "object | None" = None,
    engine: "IncrementalAssignment | None" = None,
) -> GreedyResult:
    """Run the greedy for anchor set ``anchors`` under segment plan ``plan``.

    ``order`` is the UAV deployment order (defaults to decreasing capacity);
    at most ``plan.lmax`` UAVs are placed.

    ``gain_mode`` selects how candidates are compared in each iteration:

    * ``"exact"`` (paper-faithful): the feasible candidate with the
      largest exact marginal gain wins; gains are measured by try/rollback
      augmentation, lazily, only where the upper bound could still win;
    * ``"fast"``: candidates are ranked by the *direct* gain bound (the
      unassigned users they cover, capped by capacity — a lower bound that
      omits alternating-chain gains); only the winner is opened, exactly.
      The maintained assignment stays an exact maximum either way; only the
      selection score is approximated.  The ablation bench quantifies the
      difference (typically nil to a fraction of a percent of coverage).

    ``context`` (a :class:`repro.core.context.SolverContext`) supplies hop
    rows and coverage counts from its precomputed arrays — same values as
    the graph lookups, so results are identical either way — and switches
    the candidate loop to its batched numpy form.

    ``engine`` optionally supplies a warm :class:`IncrementalAssignment`
    with no open stations — typically one the caller has :meth:`~
    repro.flow.bipartite.IncrementalAssignment.fork`-ed so the subset
    sweep reuses a single engine.  All stations this greedy opens are
    committed into the caller's fork scope.
    """
    if gain_mode not in ("exact", "fast"):
        raise ValueError(f"gain_mode must be 'exact' or 'fast', got {gain_mode!r}")
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if len(anchor_set) != plan.s:
        raise ValueError(
            f"expected {plan.s} distinct anchors, got {sorted(anchor_set)}"
        )
    if order is None:
        order = problem.capacity_order()

    if context is not None:
        hops = context.hops_to_set(list(anchor_set))
    else:
        hops = graph.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = sorted(matroid.ground_set())
    if engine is None:
        engine = new_engine_for(graph)
    table = CoverTable.of(problem, context)
    lazy = LazyGains(engine, graph, fleet, "greedy.oracle_calls", table)

    if context is not None:
        universe_arr = np.asarray(universe, dtype=np.int64)
        uhops = np.asarray(hops, dtype=np.int64)[universe_arr]
        anchor_flags = np.isin(
            universe_arr, np.fromiter(anchor_set, dtype=np.int64)
        )
        avail = np.ones(universe_arr.size, dtype=bool)

    chosen: list = []
    used_locations: set = set()
    rounds = min(plan.lmax, len(order))
    for k_pos in range(rounds):
        k = order[k_pos]
        uav = fleet[k]
        first_iteration = not chosen

        if context is not None:
            # Numpy-native round: feasibility is one hop comparison,
            # gains one batched reduction over the coverage matrix.
            cand_mask = avail & (uhops <= hop_filter.max_addable_hop())
            if not cand_mask.any():
                break
            cand = universe_arr[cand_mask]
            cand_anchor = anchor_flags[cand_mask]
            static = np.minimum(
                uav.capacity,
                context.counts_for_uav(k)[cand].astype(np.int64),
            )
            if first_iteration:
                # With no open stations the static bound is the exact gain.
                best_v, _ = _pick_max(cand, static, cand_anchor)
            elif gain_mode == "fast":
                gains = engine.direct_gain_bounds(
                    context.coverage_rows(k)[cand], uav.capacity
                )
                best_v, _ = _pick_max(cand, gains, cand_anchor)
            else:
                best_v = _lazy_pick(lazy, k, cand, static, cand_anchor)
            avail[np.searchsorted(universe_arr, best_v)] = False
        else:
            candidates = [
                v for v in universe
                if v not in used_locations and hop_filter.can_add(v)
            ]
            if not candidates:
                break
            if first_iteration or gain_mode == "fast":
                # With no open stations, min(capacity, |cover|) is the exact
                # gain; in fast mode the direct bound is the selection score.
                best_gain = -1
                best_v = -1
                best_is_anchor = False
                for v in candidates:
                    if first_iteration:
                        gain = min(
                            uav.capacity, graph.coverage_weight(v, uav)
                        )
                    else:
                        gain = engine.direct_gain_bound(
                            table.cover(k, v), uav.capacity
                        )
                    is_anchor = v in anchor_set
                    if gain > best_gain or (
                        gain == best_gain and is_anchor and not best_is_anchor
                    ):
                        best_gain, best_v, best_is_anchor = gain, v, is_anchor
            else:
                cand = np.asarray(candidates, dtype=np.int64)
                static = lazy.static(k, cand)
                cand_anchor = np.isin(cand, sorted(anchor_set))
                best_v = _lazy_pick(lazy, k, cand, static, cand_anchor)

        assert best_v >= 0
        engine.open((k, best_v), table.cover(k, best_v), uav.capacity)
        hop_filter.add(best_v)
        used_locations.add(best_v)
        chosen.append((k, best_v))

    missing = anchor_set - used_locations
    assert not missing, (
        f"anchors {sorted(missing)} not selected; the Q_h counting bounds "
        "should force all anchors into the solution"
    )
    obs.counter_inc("greedy.runs")
    obs.counter_inc("greedy.placements", len(chosen))
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)


def _lazy_pick(lazy: LazyGains, k: int, cand: np.ndarray,
               static: np.ndarray, cand_anchor: np.ndarray) -> int:
    """The exact-gain winner of one anchored round: largest gain, then
    anchors, then the larger static bound, then the lowest location —
    the order the eager bound-ordered scan visited and tie-broke in."""
    return int(cand[lazy.argmax(k, cand, static,
                                (cand, -static, ~cand_anchor))])


def pair_greedy(
    problem: ProblemInstance,
    anchors: list,
    plan: SegmentPlan,
    context: "object | None" = None,
    engine: "IncrementalAssignment | None" = None,
) -> GreedyResult:
    """Textbook FNW greedy over the full ``X × V`` ground set.

    Unlike Algorithm 2's capacity-sorted specialisation (UAV ``k`` is fixed
    in iteration ``k``), each iteration here picks the best *(UAV,
    location)* pair among those feasible in both matroids — ``M1`` (each
    UAV once; plus each location once, which deployments require) and
    ``M2`` (hop counting).  This is the form the 1/3 guarantee is stated
    for; the ablation bench compares it against Algorithm 2's loop.

    Gains are exact: one :meth:`~repro.core.lazy.LazyGains.argmax` over
    every pair, bounded by ``min(capacity, |cover|)`` and by the stale
    gains of dominating UAVs.  Zero-gain ties prefer anchor locations so
    the anchors always enter the solution.  ``engine`` works as in
    :func:`anchored_greedy`.
    """
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if len(anchor_set) != plan.s:
        raise ValueError(
            f"expected {plan.s} distinct anchors, got {sorted(anchor_set)}"
        )
    if context is not None:
        hops = context.hops_to_set(list(anchor_set))
    else:
        hops = graph.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = sorted(matroid.ground_set())
    if engine is None:
        engine = new_engine_for(graph)
    table = CoverTable.of(problem, context)
    lazy = LazyGains(engine, graph, fleet, "greedy.oracle_calls", table)

    chosen: list = []
    used_uavs: set = set()
    used_locations: set = set()
    for _round in range(min(plan.lmax, len(fleet))):
        free_uavs = [k for k in range(len(fleet)) if k not in used_uavs]
        candidates = [
            v for v in universe
            if v not in used_locations and hop_filter.can_add(v)
        ]
        if not free_uavs or not candidates:
            break
        cand = np.asarray(candidates, dtype=np.int64)
        ks = np.repeat(np.asarray(free_uavs, dtype=np.int64), cand.size)
        vs = np.tile(cand, len(free_uavs))
        static = np.concatenate(
            [lazy.static(k, cand, context) for k in free_uavs]
        )
        tie = (vs, ks, -static, ~np.isin(vs, sorted(anchor_set)))
        if chosen:
            pick = lazy.argmax(ks, vs, static, tie)
        else:
            # No station open: the static bound is the exact gain.
            pick = int(np.lexsort(tie + (-static,))[0])
        k, v = int(ks[pick]), int(vs[pick])
        engine.open((k, v), table.cover(k, v), fleet[k].capacity)
        hop_filter.add(v)
        used_uavs.add(k)
        used_locations.add(v)
        chosen.append((k, v))

    missing = anchor_set - used_locations
    assert not missing, "anchors must end up in the pair-greedy solution"
    obs.counter_inc("greedy.runs")
    obs.counter_inc("greedy.placements", len(chosen))
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)
