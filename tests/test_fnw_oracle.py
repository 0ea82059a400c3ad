"""The production greedies *are* the paper's FNW greedy, pick for pick.

Section III-B/E states the 1/3 guarantee for the Fisher–Nemhauser–Wolsey
greedy over ``M1 ∩ M2`` scored by ``f(A)``.  The reference is that greedy
taken literally (``tests/reference/fnw.py``), re-solving ``f`` for every
feasible (UAV, location) pair in every round.  ``M1`` is two partition
matroids over ``X × V`` (each UAV once, each location once), ``M2`` the
anchors' :class:`HopCountingMatroid` read on the pairs' locations.

``pair_greedy`` must pick the reference's sequence over all of ``X × V``;
``anchored_greedy`` the reference with round ``r`` restricted to UAV
``order[r]``.  Both run ``min(L_max, K)`` rounds and keep picking at zero
gain, and the reference breaks ties as they document: gain, then
anchors, then the larger singleton value ``f({(k, v)})`` (``min(capacity,
coverage weight)``), then the lowest UAV, then the lowest location.

Instances: seeded line and ``paper_scenario(scale="small")`` problems, per
user and as singleton cells, ``s`` in {1, 2}, every anchor subset of a
small pool that the sweep hands to a greedy (``prunable`` ones it never
does), with and without a :class:`SolverContext`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest

from repro.core.approx import _anchor_pool
from repro.core.context import SolverContext
from repro.core.greedy import anchored_greedy, pair_greedy
from repro.core.problem import ProblemInstance
from repro.core.segments import optimal_segments
from repro.graphs.bfs import multi_source_hops
from repro.matroid.hop import HopCountingMatroid
from repro.network.uav import UAV
from repro.workload.aggregate import aggregate_problem
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance
from tests.reference.fnw import CoverageObjective, PartitionMatroid, fnw_pick
from tests.reference.subsets import prunable

POOL_SIZE = 5


class PairsOnLocations:
    """A location matroid read on (UAV, location) pairs."""

    def __init__(self, matroid) -> None:
        self.matroid = matroid

    def is_independent(self, pairs) -> bool:
        return self.matroid.is_independent({v for _, v in pairs})

    def can_extend(self, pairs, pair) -> bool:
        return self.matroid.can_extend({v for _, v in pairs}, pair[1])


def reference_greedy(problem, anchors, plan, grounds) -> list:
    """FNW over ``M1 ∩ M2`` with ``f``: round ``r`` picks from
    ``grounds[r]``, stopping early when nothing there is feasible."""
    every_pair = [
        (k, v)
        for k in range(problem.num_uavs)
        for v in range(problem.num_locations)
    ]
    matroids = [
        PartitionMatroid(every_pair, block_of=lambda pair: pair[0]),
        PartitionMatroid(every_pair, block_of=lambda pair: pair[1]),
        PairsOnLocations(HopCountingMatroid(
            multi_source_hops(problem.graph.location_graph, list(anchors)),
            plan.q_bounds(),
        )),
    ]
    f = CoverageObjective(problem.graph, problem.fleet)
    singleton = lru_cache(maxsize=None)(lambda pair: f([pair]))

    def tie_key(pair):
        k, v = pair
        return (v not in anchors, -singleton(pair), k, v)

    chosen: list = []
    for ground in grounds:
        pick = fnw_pick(ground, f, matroids, chosen, tie_key)
        if pick is None:
            break
        chosen.append(pick[0])
    return chosen


def _line_disjoint():
    return make_line_instance(
        num_locations=6, users_per_location=3,
        capacities=(5, 1, 3, 2, 4, 3),
    )


def _line_overlapping():
    return make_line_instance(
        num_locations=6, users_per_location=[4, 1, 3, 5, 2, 3],
        capacities=(3, 3, 2, 4, 1, 2), spacing=350.0,
    )


def _line_sparse():
    # More UAVs than occupied locations: the late rounds gain nothing, so
    # the zero-gain tie rule (anchors first) decides them.
    return make_line_instance(
        num_locations=7, users_per_location=[3, 0, 2, 0, 0, 4, 0],
        capacities=(2, 2, 1, 3, 1, 2), spacing=350.0,
    )


def _line_mixed_radios():
    # A short-range UAV at one location can tie a long-range one at
    # another, so pair_greedy's UAV-before-location tie order decides.
    base = make_line_instance(
        num_locations=6, users_per_location=[3, 2, 2, 4, 1, 4],
        spacing=350.0,
    )
    fleet = [
        UAV(capacity=c, tx_power_dbm=36.0, antenna_gain_db=3.0,
            user_range_m=r, name=f"uav-{k}")
        for k, (c, r) in enumerate(
            zip((3, 1, 2, 4, 3), (320.0, 500.0, 500.0, 500.0, 320.0))
        )
    ]
    return ProblemInstance(graph=base.graph, fleet=fleet)


def _paper_small():
    return paper_scenario(num_users=90, num_uavs=5, scale="small", seed=7)


INSTANCES = {
    "line-disjoint": _line_disjoint,
    "line-overlapping": _line_overlapping,
    "line-sparse": _line_sparse,
    "line-mixed-radios": _line_mixed_radios,
    "paper-small": _paper_small,
}


@lru_cache(maxsize=None)
def build(name: str, view: str):
    problem = INSTANCES[name]()
    if view == "cells":
        problem = aggregate_problem(problem, None)
    return problem, SolverContext.from_problem(problem)


CASES = [
    (greedy, name, view, s)
    for greedy in ("pair", "anchored")
    for name in INSTANCES
    for view in ("users", "cells")
    for s in (1, 2)
]


@pytest.mark.parametrize(
    "greedy,name,view,s", CASES, ids=["-".join(map(str, c)) for c in CASES]
)
def test_greedy_is_fnw(greedy, name, view, s):
    problem, context = build(name, view)
    plan = optimal_segments(problem.num_uavs, s)
    order = problem.capacity_order()
    rounds = min(plan.lmax, problem.num_uavs)
    pool = _anchor_pool(problem, None, POOL_SIZE, s)
    subsets = [a for a in combinations(pool, s) if not prunable(problem, a)]
    assert subsets
    f = CoverageObjective(problem.graph, problem.fleet)
    for anchors in subsets:
        if greedy == "pair":
            grounds = [[
                (k, v)
                for k in range(problem.num_uavs)
                for v in range(problem.num_locations)
            ]] * rounds
        else:
            grounds = [
                [(order[r], v) for v in range(problem.num_locations)]
                for r in range(rounds)
            ]
        want = reference_greedy(problem, anchors, plan, grounds)
        for ctx in (None, context):
            if greedy == "pair":
                got = pair_greedy(problem, list(anchors), plan, context=ctx)
            else:
                got = anchored_greedy(problem, list(anchors), plan, order,
                                      gain_mode="exact", context=ctx)
            assert got.chosen == want, (anchors, ctx is not None)
            assert got.served == f(want)
