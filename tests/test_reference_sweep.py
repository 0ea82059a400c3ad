"""The anchor-subset sweep against an eager full enumeration.

:func:`reference_sweep` is Algorithm 2's outer step and nothing more:
every subset the scalar connectivity prune keeps, in lexicographic order,
evaluated by the scalar greedy and connect loops of
``tests/reference/subsets.py`` on a fresh engine and picked with
``_better`` — no served-cap stop, no chunks, no pool, no
:class:`SolverContext`.  ``appro_alg`` must match it with and without a
caller-supplied context, serially and pooled, in both gain modes,
including on saturated instances where the served-cap stop fires.
"""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import _anchor_pool, _better, appro_alg
from repro.core.context import SolverContext
from repro.core.segments import optimal_segments
from repro.scenario.spec import get_preset
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance
from tests.reference.subsets import evaluate_subset, prunable
from tests.test_core_approx import random_tiny_problem


def reference_sweep(problem, s, max_anchor_candidates=None,
                    gain_mode="exact"):
    """``(best, surviving)``: the winning ``(served, placements,
    anchors)`` and the number of subsets the connectivity prune kept,
    retrying with ``s - 1`` when nothing is feasible, as appro_alg does."""
    s = min(s, problem.num_uavs)
    pool = _anchor_pool(problem, None, max_anchor_candidates, s)
    plan = optimal_segments(problem.num_uavs, s)
    best, surviving = None, 0
    for subset in combinations(pool, s):
        if prunable(problem, subset):
            continue
        surviving += 1
        outcome = evaluate_subset(
            problem, subset, plan, problem.capacity_order(), gain_mode
        )
        if outcome is not None and _better((*outcome, subset), best):
            best = (*outcome, subset)
    if best is None and s > 1:
        return reference_sweep(problem, s - 1, max_anchor_candidates,
                               gain_mode)
    return best, surviving


def assert_matches_reference(problem, s, workers=1, use_context=False,
                             **kw):
    (served, placements, anchors), surviving = reference_sweep(
        problem, s, **kw
    )
    context = SolverContext.from_problem(problem) if use_context else None
    result = appro_alg(problem, s=s, workers=workers, context=context, **kw)
    assert result.served == served
    assert result.anchors == anchors
    assert result.deployment.placements == placements
    stats = result.stats
    assert stats.subsets_bound_skipped + stats.subsets_evaluated == surviving
    assert stats.subsets_total == stats.subsets_pruned + surviving
    return result


@pytest.mark.timeout_guard(180)
@pytest.mark.parametrize("seed", [1, 3, 8])
def test_sweep_matches_reference(seed):
    problem = paper_scenario(
        num_users=130, num_uavs=4, scale="small", seed=seed
    )
    for gain_mode in ("exact", "fast"):
        for workers in (1, 2):
            for use_context in (False, True):
                assert_matches_reference(problem, 2, workers, use_context,
                                         gain_mode=gain_mode)


@pytest.mark.timeout_guard(180)
def test_pooled_sweep_matches_reference():
    problem = paper_scenario(num_users=150, num_uavs=5, scale="small", seed=4)
    assert assert_matches_reference(problem, 2, workers=4).stats.workers == 4


@given(st.integers(0, 10_000))
@settings(max_examples=6, deadline=None)
def test_sweep_matches_reference_on_tiny_problems(seed):
    problem = random_tiny_problem(seed)
    for gain_mode in ("exact", "fast"):
        for workers in (1, 2):
            for use_context in (False, True):
                assert_matches_reference(problem, 2, workers, use_context,
                                         gain_mode=gain_mode)


@pytest.mark.timeout_guard(180)
@pytest.mark.parametrize("workers", [1, 2])
def test_served_cap_stop_on_saturated_fleet(workers):
    """135 users against a total capacity of 110: once a subset serves
    110 the rest of the sweep is skipped, and the winner is unchanged."""
    problem = make_line_instance(
        num_locations=12,
        users_per_location=[40, 40, 30, 20, 0, 0, 0, 0, 0, 0, 0, 5],
        capacities=[35, 30, 25, 20],
    )
    result = assert_matches_reference(problem, 2, workers)
    assert result.served == 110
    assert result.stats.subsets_bound_skipped > 0


@pytest.mark.timeout_guard(180)
@pytest.mark.parametrize("tile_index", range(4))
def test_served_cap_stop_on_tiled_cells(tile_index):
    """``scale-smoke``'s 2x2 tiles of 150 m demand cells at 2x10^4
    users: each tile's demand saturates its few UAVs."""
    problem = get_preset("scale-smoke").with_overrides(
        num_users=20_000, tile_index=tile_index
    ).build()
    for workers in (1, 2):
        result = assert_matches_reference(
            problem, 2, workers, gain_mode="fast", max_anchor_candidates=6
        )
        assert result.served == sum(uav.capacity for uav in problem.fleet)
        assert result.stats.subsets_bound_skipped > 0
