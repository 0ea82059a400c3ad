"""The batched subset evaluation against the scalar loops it replaced,
pick for pick.

``anchored_greedy`` and ``connect_and_deploy`` read a
:class:`SolverContext` in every round: feasibility is one hop
comparison, fast-mode gains one masked popcount over the context's
packed cover rows, static bounds one gather from its counts.  The
reference is the scalar per-candidate loop they ran without a context
(``tests/reference/subsets.py``).  For every anchor subset of a small
pool that the sweep hands to a greedy, both must make the same greedy
picks in the same order, staff the same relays with the same UAVs, and
augment the same leftover locations, with equal served counts.

Both gain modes run.  Fast mode matters most: every preset but
``demo-small`` ranks candidates by the direct bound.  Instances: the
FNW oracle's seeded line and ``paper_scenario(scale="small")`` problems,
the ``demo-small`` and ``bench-default`` presets, each per user, as
singleton cells (the bitset engine) and as 250 m demand cells (the
demand-cell engine).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import pytest

from repro.core.approx import _anchor_pool
from repro.core.connect import connect_and_deploy
from repro.core.context import SolverContext
from repro.core.greedy import anchored_greedy
from repro.core.segments import optimal_segments
from repro.flow.bipartite import cell_demands
from repro.scenario.spec import get_preset
from repro.workload.aggregate import aggregate_problem
from tests.reference import subsets as scalar
from tests.test_fnw_oracle import INSTANCES as FNW_INSTANCES

POOL_SIZE = 8
COARSE_CELL_M = 250.0

INSTANCES = dict(FNW_INSTANCES)
for _preset in ("demo-small", "bench-default"):
    INSTANCES[_preset] = get_preset(_preset).build


@lru_cache(maxsize=None)
def build(name: str, view: str):
    problem = INSTANCES[name]()
    if view == "cells":
        problem = aggregate_problem(problem, None)
    elif view == "coarse":
        problem = aggregate_problem(problem, COARSE_CELL_M)
    return problem, SolverContext.from_problem(problem)


CASES = [
    (name, view, gain_mode)
    for name in INSTANCES
    for view in ("users", "cells", "coarse")
    for gain_mode in ("exact", "fast")
]


def test_views_reach_both_engines():
    """Singleton cells run the bitset engine; the presets' coarse cells
    hold more than one user and run the demand-cell engine."""
    for name in ("demo-small", "bench-default"):
        assert cell_demands(build(name, "cells")[0].graph) is None
        assert cell_demands(build(name, "coarse")[0].graph) is not None


@pytest.mark.parametrize(
    "name,view,gain_mode", CASES, ids=["-".join(c) for c in CASES]
)
def test_batched_picks_match_scalar_loops(name, view, gain_mode):
    problem, context = build(name, view)
    order = problem.capacity_order()
    evaluated = 0
    for s in (1, 2):
        plan = optimal_segments(problem.num_uavs, s)
        pool = _anchor_pool(problem, None, POOL_SIZE, s, context)
        for anchors in combinations(pool, s):
            if scalar.prunable(problem, anchors):
                continue
            want = scalar.anchored_greedy(problem, list(anchors), plan,
                                          order, gain_mode)
            got = anchored_greedy(problem, list(anchors), plan, order,
                                  gain_mode=gain_mode, context=context)
            assert got.chosen == want.chosen, (s, anchors)
            assert got.served == want.served
            want_sol = scalar.connect_and_deploy(problem, want, order,
                                                 gain_mode=gain_mode)
            got_sol = connect_and_deploy(problem, got, order,
                                         gain_mode=gain_mode,
                                         context=context)
            evaluated += 1
            if want_sol is None:
                assert got_sol is None, (s, anchors)
                continue
            # Dict order is pick order: greedy picks, relays, leftovers.
            assert list(got_sol.placements.items()) \
                == list(want_sol.placements.items()), (s, anchors)
            assert got_sol.relay_locations == want_sol.relay_locations
            assert got_sol.subgraph_nodes == want_sol.subgraph_nodes
            assert got_sol.served == want_sol.served
    assert evaluated
