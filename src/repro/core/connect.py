"""Connection step of Algorithm 2 (lines 13-18).

The greedy's chosen locations may induce a disconnected subgraph; build the
complete hop-weighted graph over them, take an MST, expand each MST edge
into a shortest path in the location graph, and deploy the remaining UAVs
(in decreasing capacity order) on the relay nodes so the final network is
connected.  If the connected subgraph needs more than ``K`` nodes the
anchor set is infeasible and ``None`` is returned.

Every pick reads the :class:`~repro.core.context.SolverContext` (built
from the problem when the caller passes none).  In fast mode one masked
popcount over its packed cover rows ranks all pending relays, or the
whole frontier, at once; its picks are pinned to the scalar scans of
``tests/reference/subsets.py``.

Performance note (results are identical to probing every candidate): with
exact gains, relay staffing and leftover augmentation each pick with one
lazy scan (:meth:`repro.core.lazy.LazyGains.argmax`).  Every gain a UAV
measured at a location stays an upper bound, for the rest of this call,
on the gain there of each later UAV it dominates: capacity no smaller,
user range no longer and transmit power plus antenna gain no higher.
The remaining UAVs come in decreasing capacity order, so within a radio
class each measurement bounds every later one and the scan only
re-measures the locations whose bound still beats the best gain found.
Incomparable radios fall back to ``min(capacity, |cover|)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.context import SolverContext
from repro.core.greedy import GreedyResult
from repro.core.lazy import LazyGains
from repro.core.problem import ProblemInstance


@dataclass
class ConnectedSolution:
    """A feasible connected deployment candidate for one anchor set."""

    placements: dict   # uav_index -> location_index (greedy picks + relays)
    served: int         # optimal served users for these placements
    relay_locations: list
    subgraph_nodes: set


def connect_and_deploy(
    problem: ProblemInstance,
    greedy: GreedyResult,
    order: "list | None" = None,
    augment_leftover: bool = True,
    gain_mode: str = "exact",
    context: "SolverContext | None" = None,
) -> "ConnectedSolution | None":
    """Connect the greedy's locations and staff the relays with UAVs.

    ``context`` (a :class:`repro.core.context.SolverContext`) supplies
    the coverage counts, packed cover rows and covers every pick reads;
    one is built from ``problem`` when none is given.  The connection
    itself runs on the graph's cached hop rows.

    Relay staffing follows the paper's "arbitrary, e.g. greedy" guidance:
    remaining UAVs are taken in decreasing capacity order and each is put on
    the relay location with the largest exact marginal gain (relays can
    serve users too, so this only helps).  Returns ``None`` when the
    connected subgraph would need more than ``K`` UAVs.

    When ``augment_leftover`` is true (default) the ``K - q_j`` UAVs that
    Algorithm 2 as written would leave on the ground are deployed too: each
    goes, in decreasing capacity order, to the unoccupied location adjacent
    to the current network with the largest exact gain, stopping at zero
    gain.  This preserves connectivity and can only increase coverage; the
    ablation bench quantifies its effect (it is our addition, not the
    paper's — see DESIGN.md §3).
    """
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

    if context is None:
        context = SolverContext.from_problem(problem)
    engine = greedy.engine
    fast = gain_mode == "fast"
    table = context.cover_table(problem)
    lazy = LazyGains(engine, graph, fleet, "connect.oracle_calls", table)
    pending = list(relays)
    for k in remaining[: len(relays)]:
        uav = fleet[k]
        if fast:
            # One masked popcount ranks every pending relay; argmax
            # returns the first maximum, as a strict-improvement scan does.
            gains = engine.direct_gain_bounds(
                context.coverage_rows(k)[np.asarray(pending)], uav.capacity
            )
            best_loc = pending[int(np.argmax(gains))]
        else:
            best_loc = _lazy_best(lazy, k, pending, context, floor=-1)
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
                # Every frontier gain lands in one reduction; the first
                # maximum wins when it is positive.
                locs = np.asarray(sorted(frontier))
                gains = engine.direct_gain_bounds(
                    context.coverage_rows(k)[locs], uav.capacity
                )
                pos = int(np.argmax(gains))
                best_loc = int(locs[pos]) if int(gains[pos]) > 0 else -1
            else:
                best_loc = _lazy_best(
                    lazy, k, sorted(frontier), context, floor=0
                )
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


def _lazy_best(lazy: LazyGains, k: int, locs: list,
               context: SolverContext, floor: int) -> int:
    """The exact-gain winner for UAV ``k`` among the sorted ``locs``:
    largest gain, then lowest location; ``-1`` when no gain beats
    ``floor``."""
    locs = np.asarray(locs, dtype=np.int64)
    pick = lazy.argmax(k, locs, lazy.static(k, locs, context), (locs,), floor)
    return -1 if pick < 0 else int(locs[pick])
