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
* every round reads the :class:`~repro.core.context.SolverContext` (built
  from the problem when the caller passes none), so the candidate set is
  numpy-native: matroid feasibility is one comparison against the hop
  array (:meth:`IncrementalHopFilter.max_addable_hop`), static bounds one
  gather from the context's coverage counts, and fast-mode gains one
  masked popcount over its packed coverage matrix
  (:meth:`IncrementalAssignment.direct_gain_bounds`).  Its picks are
  pinned, round for round, to the scalar per-candidate loop of
  ``tests/reference/subsets.py``.

Zero-gain ties are broken in favour of anchors, then lowest location index
(determinism).  The counting bounds ``Q_h`` guarantee all ``s`` anchors are
in the solution at termination; this is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.context import SolverContext
from repro.core.lazy import LazyGains
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
              cand_anchor: np.ndarray) -> int:
    """Vectorised winner rule over ascending candidate indices: among the
    max-gain candidates prefer anchors, then the lowest location index —
    exactly what a scalar scan's ``gain > best or (tie and anchor)``
    update converges to."""
    ties = gains == gains.max()
    tie_anchor = ties & cand_anchor
    pick = tie_anchor if tie_anchor.any() else ties
    return int(cand[pick][0])


def anchored_greedy(
    problem: ProblemInstance,
    anchors: list,
    plan: SegmentPlan,
    order: "list | None" = None,
    gain_mode: str = "exact",
    context: "SolverContext | None" = None,
    engine: "IncrementalAssignment | None" = None,
) -> GreedyResult:
    """Run the greedy for anchor set ``anchors`` under segment plan ``plan``.

    ``order`` is the UAV deployment order (defaults to decreasing capacity);
    at most ``plan.lmax`` UAVs are placed.

    ``gain_mode`` selects how candidates are compared in each iteration:

    * ``"exact"`` (paper-faithful): the feasible candidate with the
      largest exact marginal gain wins; gains are measured by count-only
      max-flow probes (``engine.gain``), lazily, only where the upper
      bound could still win;
    * ``"fast"``: candidates are ranked by the *direct* gain bound (the
      unassigned users they cover, capped by capacity — a lower bound that
      omits alternating-chain gains); only the winner is opened, exactly.
      The maintained assignment stays an exact maximum either way; only the
      selection score is approximated.  The ablation bench quantifies the
      difference (typically nil to a fraction of a percent of coverage).

    ``context`` (a :class:`repro.core.context.SolverContext`) supplies the
    hop distances, coverage counts and packed cover rows every round
    reads, and the covers the engine opens; one is built from
    ``problem`` when none is given.

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
    if context is None:
        context = SolverContext.from_problem(problem)

    hops = context.hops_to_set(list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = np.asarray(sorted(matroid.ground_set()), dtype=np.int64)
    if engine is None:
        engine = new_engine_for(graph)
    table = context.cover_table(problem)
    lazy = LazyGains(engine, graph, fleet, "greedy.oracle_calls", table)
    uhops = np.asarray(hops, dtype=np.int64)[universe]
    anchor_flags = np.isin(universe, np.fromiter(anchor_set, dtype=np.int64))
    avail = np.ones(universe.size, dtype=bool)

    chosen: list = []
    for k in order[:plan.lmax]:
        uav = fleet[k]
        # Feasibility is one hop comparison, gains one batched reduction
        # over the coverage matrix.
        cand_mask = avail & (uhops <= hop_filter.max_addable_hop())
        if not cand_mask.any():
            break
        cand = universe[cand_mask]
        cand_anchor = anchor_flags[cand_mask]
        static = lazy.static(k, cand, context)
        if not chosen:
            # With no open stations the static bound is the exact gain.
            best_v = _pick_max(cand, static, cand_anchor)
        elif gain_mode == "fast":
            gains = engine.direct_gain_bounds(
                context.coverage_rows(k)[cand], uav.capacity
            )
            best_v = _pick_max(cand, gains, cand_anchor)
        else:
            best_v = _lazy_pick(lazy, k, cand, static, cand_anchor)
        avail[np.searchsorted(universe, best_v)] = False
        engine.open((k, best_v), table.cover(k, best_v), uav.capacity)
        hop_filter.add(best_v)
        chosen.append((k, best_v))

    missing = anchor_set - {v for _, v in chosen}
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

