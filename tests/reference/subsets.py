"""Algorithm 2's per-subset evaluation as scalar loops, kept as a test
reference.

These are the ``context is None`` branches ``repro.core.greedy`` and
``repro.core.connect`` carried before every greedy and connect call read
a :class:`~repro.core.context.SolverContext`: greedy rounds that score
one candidate at a time, relay staffing and leftover augmentation that
walk the pending relays and the frontier location by location, and the
scalar connectivity prune ``repro.core.approx`` kept next to the
vectorised one.  The bodies are the old ones verbatim, except that

* the anchors' hop distances come from the multi-source BFS directly
  (``multi_source_hops``; the graph's ``hops_to_set`` wrapper is gone);
* the direct gain bound is read from the engine's public state
  (:func:`direct_gain_bound`), not from an engine method;
* the batched ``context`` branches are left out.

Exact gains still go through :class:`repro.core.lazy.LazyGains`, as they
did: the reference is the candidate loop, not the probe.
``tests/test_reference_sweep.py`` and ``tests/test_subset_loop_oracle.py``
pin the solver to these loops.
"""

from __future__ import annotations

import numpy as np

from repro.core.connect import ConnectedSolution
from repro.core.greedy import GreedyResult
from repro.core.lazy import CoverTable, LazyGains
from repro.flow.bipartite import CellAssignment, new_engine_for
from repro.graphs.bfs import UNREACHABLE, multi_source_hops
from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter


def prunable(problem, subset: tuple) -> bool:
    """Scalar reference for the connectivity prune (the vectorised
    :func:`repro.core.context.prunable_mask` must agree with it).  True if
    the anchors provably cannot appear in any feasible solution: some pair
    is disconnected, or the path joining the two farthest anchors alone
    already needs more than ``K`` nodes (a valid lower bound on any
    connected subgraph containing the anchors; see
    :func:`repro.graphs.steiner.connection_cost_lower_bound`)."""
    graph = problem.graph
    worst = 0
    for a_pos in range(len(subset) - 1):
        row = graph.hops_from(subset[a_pos])
        for b in subset[a_pos + 1:]:
            d = row[b]
            if d == UNREACHABLE:
                return True
            worst = max(worst, d)
    return max(len(subset), worst + 1) > problem.num_uavs


def direct_gain_bound(engine, cover, capacity: int) -> int:
    """The free covered users (residual cell demand on a demand-cell
    engine) a new station could take directly, capped by capacity — read
    from the engine's public state.  ``cover`` is an integer bitset or a
    sequence of user (cell) indices; repeats count once."""
    if capacity <= 0:
        return 0
    if isinstance(engine, CellAssignment):
        residual = np.array(engine.demands, dtype=np.int64)
        for flow in engine.flows().values():
            for cell, units in flow.items():
                residual[cell] -= units
        cells = np.unique(np.asarray(cover, dtype=np.int64))
        return min(capacity, int(residual[cells].sum()))
    if not isinstance(cover, int):
        cover = sum(1 << u for u in {int(u) for u in cover})
    return min(capacity, (cover & ~engine.served_bits).bit_count())


def anchored_greedy(problem, anchors: list, plan, order=None,
                    gain_mode: str = "exact", engine=None) -> GreedyResult:
    """The anchored greedy's scalar candidate loop (Algorithm 2, lines
    5-12)."""
    graph = problem.graph
    fleet = problem.fleet
    anchor_set = set(anchors)
    if order is None:
        order = problem.capacity_order()
    hops = multi_source_hops(graph.location_graph, list(anchor_set))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    hop_filter = IncrementalHopFilter(matroid)
    universe = sorted(matroid.ground_set())
    if engine is None:
        engine = new_engine_for(graph)
    table = CoverTable(graph, fleet)
    lazy = LazyGains(engine, graph, fleet, "greedy.oracle_calls", table)

    chosen: list = []
    used_locations: set = set()
    rounds = min(plan.lmax, len(order))
    for k_pos in range(rounds):
        k = order[k_pos]
        uav = fleet[k]
        first_iteration = not chosen

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
                    gain = direct_gain_bound(
                        engine, table.cover(k, v), uav.capacity
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
            best_v = int(cand[lazy.argmax(k, cand, static,
                                          (cand, -static, ~cand_anchor))])

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
    return GreedyResult(chosen=chosen, engine=engine, served=engine.served_count)


def connect_and_deploy(problem, greedy: GreedyResult, order=None,
                       augment_leftover: bool = True,
                       gain_mode: str = "exact") -> "ConnectedSolution | None":
    """The connection step's scalar relay and leftover scans (Algorithm 2,
    lines 13-18, plus leftover augmentation)."""
    graph = problem.graph
    fleet = problem.fleet
    if order is None:
        order = problem.capacity_order()

    terminals = [loc for _, loc in greedy.chosen]
    nodes, _tree = graph.connect_terminals(terminals)
    if len(nodes) > problem.num_uavs:
        return None

    placements = {k: loc for k, loc in greedy.chosen}
    used_uavs = set(placements)
    relays = sorted(nodes - set(terminals))
    remaining = [k for k in order if k not in used_uavs]
    assert len(remaining) >= len(relays), "q_j <= K must leave enough UAVs"

    engine = greedy.engine
    fast = gain_mode == "fast"
    table = CoverTable(graph, fleet)
    lazy = LazyGains(engine, graph, fleet, "connect.oracle_calls", table)
    pending = list(relays)
    for k in remaining[: len(relays)]:
        uav = fleet[k]
        if fast:
            best_gain = -1
            best_loc = pending[0]
            for loc in pending:
                gain = direct_gain_bound(
                    engine, table.cover(k, loc), uav.capacity
                )
                if gain > best_gain:
                    best_gain, best_loc = gain, loc
        else:
            best_loc = _lazy_best(lazy, k, pending, floor=-1)
        engine.open((k, best_loc), table.cover(k, best_loc), uav.capacity)
        placements[k] = best_loc
        pending.remove(best_loc)

    occupied = set(nodes)
    if augment_leftover:
        adjacency = graph.location_graph
        frontier = {
            w
            for v in occupied
            for w in adjacency.neighbours(v)
            if w not in occupied
        }
        for k in remaining[len(relays):]:
            if not frontier:
                break
            uav = fleet[k]
            if fast:
                best_gain = 0
                best_loc = -1
                for loc in sorted(frontier):
                    count = graph.coverage_weight(loc, uav)
                    if min(uav.capacity, count) <= best_gain:
                        continue
                    gain = direct_gain_bound(
                        engine, table.cover(k, loc), uav.capacity
                    )
                    if gain > best_gain:
                        best_gain, best_loc = gain, loc
            else:
                best_loc = _lazy_best(lazy, k, sorted(frontier), floor=0)
            if best_loc < 0:
                break  # nothing adjacent helps; stop deploying
            engine.open((k, best_loc), table.cover(k, best_loc), uav.capacity)
            placements[k] = best_loc
            occupied.add(best_loc)
            frontier.discard(best_loc)
            frontier.update(
                w for w in adjacency.neighbours(best_loc) if w not in occupied
            )

    return ConnectedSolution(
        placements=placements,
        served=engine.served_count,
        relay_locations=relays,
        subgraph_nodes=occupied,
    )


def _lazy_best(lazy: LazyGains, k: int, locs: list, floor: int) -> int:
    """The exact-gain winner for UAV ``k`` among the sorted ``locs``:
    largest gain, then lowest location; ``-1`` when no gain beats
    ``floor``."""
    locs = np.asarray(locs, dtype=np.int64)
    pick = lazy.argmax(k, locs, lazy.static(k, locs), (locs,), floor)
    return -1 if pick < 0 else int(locs[pick])


def evaluate_subset(problem, subset: tuple, plan, order: list,
                    gain_mode: str, augment_leftover: bool = True):
    """Greedy + connect for one anchor subset on a fresh engine:
    ``(served, placements)``, or ``None`` when the connected subgraph
    would exceed ``K`` UAVs."""
    greedy = anchored_greedy(problem, list(subset), plan, order, gain_mode)
    solution = connect_and_deploy(problem, greedy, order, augment_leftover,
                                  gain_mode)
    if solution is None:
        return None
    return solution.served, solution.placements
