"""Engine guarantees: the parallel fan-out is lossless — same (served,
anchors, deployment, subset accounting) as the serial sweep — and
progress/abort semantics survive it.  The comparison against an eager
full enumeration lives in ``tests/test_reference_sweep.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approx import appro_alg
from repro.core.context import SolverContext
from repro.scenario.spec import get_preset
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance

SEEDS = [1, 3, 8]


def _same(a, b):
    assert a.served == b.served
    assert a.anchors == b.anchors
    assert a.deployment.placements == b.deployment.placements
    assert a.stats.subsets_total == b.stats.subsets_total
    assert (
        a.stats.subsets_pruned
        + a.stats.subsets_bound_skipped
        + a.stats.subsets_evaluated
        == a.stats.subsets_total
    )


@pytest.mark.timeout_guard(180)
@pytest.mark.parametrize("seed", SEEDS)
def test_workers4_identical_to_serial(seed):
    problem = paper_scenario(
        num_users=130, num_uavs=4, scale="small", seed=seed
    )
    serial = appro_alg(problem, s=2)
    parallel = appro_alg(problem, s=2, workers=4)
    _same(parallel, serial)
    assert parallel.stats.workers == 4


@pytest.mark.timeout_guard(180)
def test_shared_context_reused_across_calls():
    problem = paper_scenario(num_users=130, num_uavs=4, scale="small", seed=6)
    context = SolverContext.from_problem(problem)
    a = appro_alg(problem, s=2, context=context)
    b = appro_alg(problem, s=2, context=context, workers=2)
    _same(b, a)
    # A supplied context is not re-built: build time is not re-charged.
    assert a.stats.context_build_s == 0.0


def test_progress_monotonic_across_fallback():
    """When level s is infeasible the s-1 fallback must continue the same
    monotonic (done, total) series instead of restarting from zero."""
    # Locations too far apart to interconnect: every s=2 subset is pruned
    # as disconnected, forcing the s=1 fallback.
    p = make_line_instance(num_locations=5, users_per_location=3,
                           spacing=5000.0)
    calls = []
    result = appro_alg(p, s=2, progress=lambda d, t: calls.append((d, t)))
    assert result.plan.s == 1
    assert calls, "progress must be invoked"
    dones = [d for d, _ in calls]
    totals = [t for _, t in calls]
    assert dones == sorted(dones), "done must be monotonic across fallback"
    assert all(d <= t for d, t in calls)
    assert calls[-1][0] == calls[-1][1], "series must end complete"
    # The final total covers both enumeration levels.
    assert totals[-1] >= result.stats.subsets_total


class _Cancelled(Exception):
    """Raised from a progress callback to cancel a pooled solve."""


@pytest.mark.timeout_guard(180)
def test_progress_abort_with_workers():
    """An exception raised from the progress callback must abort the
    parallel run promptly and propagate."""
    problem = paper_scenario(num_users=150, num_uavs=5, scale="small", seed=4)

    def abort(done, total):
        raise _Cancelled("stop")

    with pytest.raises(_Cancelled):
        appro_alg(problem, s=2, workers=2, progress=abort)


def test_workers_validated():
    problem = paper_scenario(num_users=90, num_uavs=4, scale="small", seed=1)
    with pytest.raises(ValueError, match="workers"):
        appro_alg(problem, s=2, workers=0)


def test_max_anchor_candidates_smaller_than_s_rejected():
    problem = paper_scenario(num_users=90, num_uavs=4, scale="small", seed=1)
    with pytest.raises(ValueError) as excinfo:
        appro_alg(problem, s=3, max_anchor_candidates=2)
    message = str(excinfo.value)
    assert "max_anchor_candidates" in message
    assert "s = 3" in message


@pytest.mark.parametrize("kwargs,name", [
    ({"s": 1, "anchor_candidates": [1.5, 3]}, "anchor_candidates"),
    ({"s": 1, "anchor_candidates": [True, 3]}, "anchor_candidates"),
    ({"s": 2, "workers": True}, "workers"),
    ({"s": 2.5}, "s"),
    ({"s": True}, "s"),
    ({"s": 2, "max_anchor_candidates": 2.5}, "max_anchor_candidates"),
])
def test_non_integer_arguments_rejected(kwargs, name):
    # A float or bool is never truncated into a different anchor.
    with pytest.raises(TypeError, match=name):
        appro_alg(get_preset("demo-small").build(), **kwargs)


def test_numpy_integer_arguments_accepted():
    problem = get_preset("demo-small").build()
    plain = appro_alg(problem, s=1, anchor_candidates=[1, 3])
    numpy_ints = appro_alg(problem, s=np.int64(1), workers=np.int32(1),
                           anchor_candidates=np.array([1, 3]))
    assert numpy_ints.anchors == plain.anchors
