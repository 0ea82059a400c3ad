"""Lazy (Minoux) exact gains against the eager scans they replaced.

Every exact-gain argmax in the solver — the anchored greedy, the pair
greedy, relay staffing, leftover augmentation and the connectivity-free
baseline — is one
:meth:`repro.core.lazy.LazyGains.argmax` over ``min(static, stale)``
upper bounds.  The references below are the eager scans it replaced:
each round tries every candidate its static bound ``min(capacity,
|cover|)`` cannot rule out.  On seeded instances the lazy solver must
pick exactly the eager winners, round by round, with no more oracle
calls (try + rollback probes).

The instances cover per-user and demand-cell graphs, a *non-nested*
fleet whose smaller UAVs carry the stronger radios (so a stale gain must
not bound them), anchors on empty locations (zero-gain ties), pairs that
tie in a different order by ``(k, v)`` than by ``(v, k)``, and a fleet
larger than its users need (leftover augmentation stops at zero gain).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.connect import connect_and_deploy
from repro.core.context import SolverContext
from repro.core.greedy import anchored_greedy, pair_greedy
from repro.core.lazy import LazyGains
from repro.core.problem import ProblemInstance
from repro.core.segments import optimal_segments
from repro.geometry.point import Point3D
from repro.flow.bipartite import new_engine_for
from repro.graphs.bfs import multi_source_hops
from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import users_from_points
from repro.workload.aggregate import aggregate_problem
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance

# -- the eager references ----------------------------------------------------


def counting_engine(graph):
    """A fresh flow engine that counts its oracle calls: each ``gain``
    call (the count-only probe) and each rollback of a try + rollback
    probe is one.  Every pick is a try + commit and is not counted."""
    engine = new_engine_for(graph)
    engine.probes = 0
    rollback = engine.rollback
    gain = engine.gain

    def counted() -> None:
        engine.probes += 1
        rollback()

    def counted_gain(*args) -> int:
        # A gain that is itself a try + rollback is still one call.
        before = engine.probes
        value = gain(*args)
        engine.probes = before + 1
        return value

    engine.rollback = counted
    engine.gain = counted_gain
    return engine


def probe(engine, graph, k, v, uav) -> int:
    gain = engine.try_open((k, v), graph.coverable_array(v, uav), uav.capacity)
    engine.rollback()
    return gain


def hop_filter_for(problem, anchors, plan):
    hops = multi_source_hops(problem.graph.location_graph, list(anchors))
    matroid = HopCountingMatroid(hops, plan.q_bounds())
    return IncrementalHopFilter(matroid), sorted(matroid.ground_set())


def eager_anchored_greedy(problem, anchors, plan, engine) -> list:
    """Algorithm 2's greedy with the eager bound-ordered scan: candidates
    in ``(-static, location)`` order, stopping once the static bound can
    no longer strictly improve or tie in an anchor's favour."""
    graph, fleet = problem.graph, problem.fleet
    anchor_set = set(anchors)
    hop_filter, universe = hop_filter_for(problem, anchors, plan)
    order = problem.capacity_order()
    chosen: list = []
    used: set = set()
    for k in order[:plan.lmax]:
        uav = fleet[k]
        candidates = [
            v for v in universe if v not in used and hop_filter.can_add(v)
        ]
        if not candidates:
            break
        scored = sorted(
            ((min(uav.capacity, graph.coverage_weight(v, uav)), v)
             for v in candidates),
            key=lambda t: (-t[0], t[1]),
        )
        best_gain, best_v, best_is_anchor = -1, -1, False
        for bound, v in scored:
            if bound < best_gain or (bound == best_gain and best_is_anchor):
                break
            gain = probe(engine, graph, k, v, uav) if chosen else bound
            is_anchor = v in anchor_set
            if gain > best_gain or (
                gain == best_gain and is_anchor and not best_is_anchor
            ):
                best_gain, best_v, best_is_anchor = gain, v, is_anchor
        engine.open((k, best_v), graph.coverable_array(best_v, uav),
                    uav.capacity)
        hop_filter.add(best_v)
        used.add(best_v)
        chosen.append((k, best_v))
    return chosen


def eager_pair_greedy(problem, anchors, plan, engine) -> list:
    """The FNW pair greedy with the eager scan over ``(-static, k, v)``."""
    graph, fleet = problem.graph, problem.fleet
    anchor_set = set(anchors)
    hop_filter, universe = hop_filter_for(problem, anchors, plan)
    chosen: list = []
    used_uavs: set = set()
    used_locations: set = set()
    for _round in range(min(plan.lmax, len(fleet))):
        free = [k for k in range(len(fleet)) if k not in used_uavs]
        candidates = [
            v for v in universe
            if v not in used_locations and hop_filter.can_add(v)
        ]
        if not free or not candidates:
            break
        scored = sorted(
            ((min(fleet[k].capacity, graph.coverage_weight(v, fleet[k])), k, v)
             for k in free for v in candidates),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        best = (-1, -1, -1, False)
        for bound, k, v in scored:
            if bound < best[0] or (bound == best[0] and best[3]):
                break
            gain = probe(engine, graph, k, v, fleet[k]) if chosen else bound
            is_anchor = v in anchor_set
            if gain > best[0] or (gain == best[0] and is_anchor and not best[3]):
                best = (gain, k, v, is_anchor)
        _, k, v, _ = best
        engine.open((k, v), graph.coverable_array(v, fleet[k]),
                    fleet[k].capacity)
        hop_filter.add(v)
        used_uavs.add(k)
        used_locations.add(v)
        chosen.append((k, v))
    return chosen


def eager_connect(problem, chosen, engine) -> dict:
    """Relay staffing (every pending relay probed, first maximum wins)
    and leftover augmentation (frontier in location order, static bound
    skips, first positive maximum wins)."""
    graph, fleet = problem.graph, problem.fleet
    terminals = [loc for _, loc in chosen]
    nodes, _ = graph.connect_terminals(terminals)
    placements = dict(chosen)
    remaining = [k for k in problem.capacity_order() if k not in placements]
    pending = sorted(nodes - set(terminals))
    num_relays = len(pending)
    for k in remaining[:num_relays]:
        uav = fleet[k]
        best_gain, best_loc = -1, pending[0]
        for loc in pending:
            gain = probe(engine, graph, k, loc, uav)
            if gain > best_gain:
                best_gain, best_loc = gain, loc
        engine.open((k, best_loc), graph.coverable_array(best_loc, uav),
                    uav.capacity)
        placements[k] = best_loc
        pending.remove(best_loc)
    occupied = set(nodes)
    adjacency = graph.location_graph
    frontier = {w for v in occupied for w in adjacency.neighbours(v)
                if w not in occupied}
    for k in remaining[num_relays:]:
        uav = fleet[k]
        best_gain, best_loc = 0, -1
        for loc in sorted(frontier):
            if min(uav.capacity, graph.coverage_weight(loc, uav)) <= best_gain:
                continue
            gain = probe(engine, graph, k, loc, uav)
            if gain > best_gain:
                best_gain, best_loc = gain, loc
        if best_loc < 0:
            break
        engine.open((k, best_loc), graph.coverable_array(best_loc, uav),
                    uav.capacity)
        placements[k] = best_loc
        occupied.add(best_loc)
        frontier.discard(best_loc)
        frontier.update(w for w in adjacency.neighbours(best_loc)
                        if w not in occupied)
    return placements


def eager_unconstrained(problem, engine) -> dict:
    """The connectivity-free greedy: every free location in index order
    whose static bound can still strictly improve is probed."""
    graph, fleet = problem.graph, problem.fleet
    placements: dict = {}
    for k in problem.capacity_order():
        uav = fleet[k]
        best_gain, best_v = -1, -1
        for v in range(graph.num_locations):
            if v in placements.values():
                continue
            cover = graph.coverable_array(v, uav)
            if min(uav.capacity, len(cover)) <= best_gain:
                continue
            gain = probe(engine, graph, k, v, uav)
            if gain > best_gain:
                best_gain, best_v = gain, v
        engine.open((k, best_v), graph.coverable_array(best_v, uav),
                    uav.capacity)
        placements[k] = best_v
    return placements


# -- instances ---------------------------------------------------------------


def non_nested(problem) -> ProblemInstance:
    """The same users and locations with a fleet whose capacity order is
    the reverse of its radio strength: the largest UAVs carry the weakest
    radios, so a stale gain never bounds a later, smaller UAV."""
    fleet = [
        UAV(capacity=uav.capacity, tx_power_dbm=30.0 + rank,
            antenna_gain_db=3.0, user_range_m=350.0 + 25.0 * rank)
        for rank, uav in enumerate(
            sorted(problem.fleet, key=lambda u: -u.capacity)
        )
    ]
    return ProblemInstance(graph=problem.graph, fleet=fleet)


def instances():
    """(label, problem, anchors) triples."""
    out = []
    for seed in range(4):
        # Small capacities make stations compete for users, so exact
        # gains fall well below the static bounds.
        problem = paper_scenario(num_users=500, num_uavs=12, scale="bench",
                                 seed=seed, capacity_min=15, capacity_max=70)
        anchors = [14 + seed, 21 - seed]
        out.append((f"users-{seed}", problem, anchors))
        out.append((f"cells-{seed}",
                    aggregate_problem(problem, 250.0), anchors))
        out.append((f"non-nested-{seed}", non_nested(problem), anchors))
    # Users under three of eight locations; the anchors sit on empty
    # ones, so anchors only ever win zero-gain ties.
    empty = make_line_instance(
        num_locations=8, users_per_location=(0, 4, 0, 0, 6, 0, 3, 0),
        capacities=(6, 6, 6, 2, 2, 1, 1), spacing=400.0,
    )
    out.append(("zero-gain-anchors", empty, [2, 7]))
    out.append(("crossing-ties", crossing_ties(), [1]))
    # Few users for the fleet: leftover augmentation runs out of positive
    # gains with UAVs and frontier locations to spare.
    out.append(("sparse-users", paper_scenario(
        num_users=40, num_uavs=12, scale="bench", seed=1), [14, 21]))
    return out


def crossing_ties() -> ProblemInstance:
    """Three locations in a row, the middle one the empty anchor.  Users:
    one under location 0 and two 350 m beyond it, which only the strong
    radio reaches; three under location 2.  UAV 0 (weak radio) and UAV 1
    (strong) tie at 3 on ``(0, 2)``, ``(1, 0)`` and ``(1, 2)`` but not on
    ``(0, 0)``, so ordering pairs by ``(k, v)`` and by ``(v, k)`` differs."""
    locations = [Point3D(x, 0.0, 300.0) for x in (1000.0, 1500.0, 2000.0)]
    users = users_from_points(
        [(1000.0, 0.0), (650.0, 0.0), (650.0, 5.0)]
        + [(2000.0 + 5.0 * i, 0.0) for i in range(3)]
    )
    graph = CoverageGraph(users=users, locations=locations, uav_range_m=600.0)
    fleet = [
        UAV(capacity=3, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=350.0),
        UAV(capacity=3, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=500.0),
        UAV(capacity=1, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=500.0),
    ]
    return ProblemInstance(graph=graph, fleet=fleet)


INSTANCES = instances()


def test_instances_reach_the_corners():
    labels = {label: problem for label, problem, _ in INSTANCES}
    cells = labels["cells-0"].graph
    assert cells.cell_demands.max() > 1
    weak, strong = sorted(labels["non-nested-0"].fleet,
                          key=lambda u: -u.capacity)[:2]
    assert weak.capacity >= strong.capacity
    assert not cells.radio_within(strong, weak)


# -- lazy == eager -----------------------------------------------------------


@pytest.mark.parametrize("use_context", [False, True])
@pytest.mark.parametrize("label,problem,anchors", INSTANCES,
                         ids=[t[0] for t in INSTANCES])
def test_anchored_greedy_matches_eager(label, problem, anchors, use_context):
    plan = optimal_segments(problem.num_uavs, len(anchors))
    context = SolverContext.from_problem(problem) if use_context else None
    eager = counting_engine(problem.graph)
    want = eager_anchored_greedy(problem, anchors, plan, eager)
    lazy = counting_engine(problem.graph)
    got = anchored_greedy(problem, anchors, plan, gain_mode="exact",
                          context=context, engine=lazy)
    assert got.chosen == want
    assert got.served == eager.served_count
    assert lazy.probes <= eager.probes


@pytest.mark.parametrize("label,problem,anchors", INSTANCES,
                         ids=[t[0] for t in INSTANCES])
def test_pair_greedy_matches_eager(label, problem, anchors):
    plan = optimal_segments(problem.num_uavs, len(anchors))
    eager = counting_engine(problem.graph)
    want = eager_pair_greedy(problem, anchors, plan, eager)
    lazy = counting_engine(problem.graph)
    got = pair_greedy(problem, anchors, plan, engine=lazy)
    assert got.chosen == want
    assert lazy.probes <= eager.probes


@pytest.mark.parametrize("use_context", [False, True])
@pytest.mark.parametrize("label,problem,anchors", INSTANCES,
                         ids=[t[0] for t in INSTANCES])
def test_connect_matches_eager(label, problem, anchors, use_context):
    """Relay staffing and leftover augmentation from the same greedy
    state: identical placements, no more probes."""
    plan = optimal_segments(problem.num_uavs, len(anchors))
    context = SolverContext.from_problem(problem) if use_context else None
    greedy = anchored_greedy(problem, anchors, plan, context=context,
                             engine=counting_engine(problem.graph))
    if len(problem.graph.connect_terminals(
            [loc for _, loc in greedy.chosen])[0]) > problem.num_uavs:
        pytest.skip("anchor set infeasible for this fleet")
    eager = counting_engine(problem.graph)
    for k, v in greedy.chosen:
        eager.open((k, v), problem.graph.coverable_array(v, problem.fleet[k]),
                   problem.fleet[k].capacity)
    want = eager_connect(problem, greedy.chosen, eager)
    before = greedy.engine.probes
    got = connect_and_deploy(problem, greedy, gain_mode="exact",
                             context=context)
    assert got.placements == want
    assert got.served == eager.served_count
    assert greedy.engine.probes - before <= eager.probes


@pytest.mark.parametrize("label,problem,anchors", INSTANCES[::3],
                         ids=[t[0] for t in INSTANCES[::3]])
def test_unconstrained_greedy_matches_eager(label, problem, anchors,
                                            monkeypatch):
    from repro.baselines import unconstrained

    engines = []

    def engine_for(num_users):
        engines.append(counting_engine(problem.graph))
        return engines[-1]

    eager = counting_engine(problem.graph)
    want = eager_unconstrained(problem, eager)
    monkeypatch.setattr(unconstrained, "IncrementalAssignment", engine_for)
    got = unconstrained.unconstrained_greedy(problem)
    assert got.placements == want
    assert engines[0].probes <= eager.probes


# -- the bound itself --------------------------------------------------------


def test_stale_gain_bounds_only_dominated_uavs():
    """A measured gain tightens the bound of a UAV with no more capacity
    and a dominated radio, and of no other."""
    problem = paper_scenario(num_users=200, num_uavs=4, scale="bench", seed=3)
    graph = problem.graph
    base = UAV(capacity=40, tx_power_dbm=36.0, antenna_gain_db=3.0,
               user_range_m=500.0)
    fleet = [
        base,
        UAV(capacity=30, tx_power_dbm=34.0, antenna_gain_db=3.0,
            user_range_m=450.0),                      # dominated
        UAV(capacity=50, tx_power_dbm=34.0, antenna_gain_db=3.0,
            user_range_m=450.0),                      # more capacity
        UAV(capacity=30, tx_power_dbm=38.0, antenna_gain_db=3.0,
            user_range_m=450.0),                      # stronger radio
    ]
    engine = new_engine_for(graph)
    lazy = LazyGains(engine, graph, fleet, "greedy.oracle_calls")
    locs = np.arange(graph.num_locations)
    # Open the busiest location so later gains fall below the static bound.
    top = int(np.argmax(lazy.static(0, locs)))
    engine.open(("seed", top), graph.coverable_array(top, base), 200)
    locs = np.delete(locs, top)
    gains = np.array([lazy.measure(0, int(v)) for v in locs])
    assert (gains < lazy.static(0, locs)).any()
    for k, dominated in ((1, True), (2, False), (3, False)):
        static = lazy.static(k, locs)
        want = np.minimum(static, gains) if dominated else static
        np.testing.assert_array_equal(
            lazy.bounds(k, locs, static), want
        )


def test_run_record_splits_oracle_calls_between_greedy_and_connect():
    """Each probe counts once, under the step that made it; nothing is
    counted while observability is off."""
    from repro import obs
    from repro.core.approx import appro_alg

    _, problem, _ = INSTANCES[0]
    obs.reset()
    appro_alg(problem, s=1, gain_mode="exact", max_anchor_candidates=3)
    assert not obs.metrics_snapshot()["counters"]
    obs.enable()
    try:
        appro_alg(problem, s=1, gain_mode="exact", max_anchor_candidates=3)
        counters = dict(obs.metrics_snapshot()["counters"])
    finally:
        obs.disable()
        obs.reset()
    greedy, connect = (counters["greedy.oracle_calls"],
                       counters["connect.oracle_calls"])
    assert greedy > 0 and connect > 0
    # The rest of the flow engine's tries are the committed picks.
    assert greedy + connect < counters["flow.try_opens"]
