"""Perf trajectory of the appro_alg engine: serial seed path vs the
vectorized/parallel engine on a Fig.-4-style scenario.

The serial and engine runs must agree exactly on ``(served, anchors)`` —
the engine's optimisations are lossless by construction, and this bench
re-checks that on a realistic instance every run.  Wall-clock points for
both paths land in ``BENCH_approx.json`` so the speedup trajectory is
recorded per machine; the speedup itself is only *asserted* under
``REPRO_BENCH_ASSERT_SPEEDUP`` (meaningless on single-core runners).

CI smoke: ``REPRO_BENCH_USERS=800 REPRO_BENCH_WORKERS=2`` keeps this
under a minute while still exercising the process pool.
"""

from __future__ import annotations

import os
import time

from benchmarks.conftest import ANCHOR_POOL, BENCH_USERS, BENCH_WORKERS
from repro.core.approx import appro_alg
from repro.core.context import SolverContext
from repro.obs.profile import peak_rss_mb

NUM_UAVS = 12
S = 2
SEED = 7
SCENARIO = f"engine:n={BENCH_USERS},K={NUM_UAVS},s={S}"


def _params() -> dict:
    params = {"s": S, "gain_mode": "fast"}
    if ANCHOR_POOL is not None:
        params["max_anchor_candidates"] = ANCHOR_POOL
    return params


def test_engine_matches_serial_and_records_speedup(
    scenario_cache, perf_trajectory
):
    problem = scenario_cache(BENCH_USERS, NUM_UAVS, seed=SEED)

    start = time.perf_counter()
    serial = appro_alg(problem, **_params())
    serial_s = time.perf_counter() - start
    perf_trajectory.record(
        SCENARIO, "approAlg", serial.served, serial_s, workers=1,
        subsets_evaluated=serial.stats.subsets_evaluated,
    )

    # Engine run: shared context (built once, reused) and the
    # process-parallel subset fan-out.
    context = SolverContext.from_problem(problem)
    start = time.perf_counter()
    engine = appro_alg(
        problem, workers=BENCH_WORKERS, context=context, **_params(),
    )
    engine_s = time.perf_counter() - start
    speedup = serial_s / engine_s if engine_s > 0 else float("inf")
    perf_trajectory.record(
        SCENARIO, "approAlg+engine", engine.served, engine_s,
        workers=BENCH_WORKERS, speedup=round(speedup, 2),
        subsets_evaluated=engine.stats.subsets_evaluated,
        subsets_bound_skipped=engine.stats.subsets_bound_skipped,
        context_build_s=round(context.build_seconds, 4),
        peak_rss_mb=peak_rss_mb(),
    )

    # Losslessness: identical result regardless of workers.
    assert engine.served == serial.served
    assert engine.anchors == serial.anchors
    assert engine.stats.subsets_total == serial.stats.subsets_total
    assert (
        engine.stats.subsets_pruned
        + engine.stats.subsets_bound_skipped
        + engine.stats.subsets_evaluated
        == engine.stats.subsets_total
    )

    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
        assert speedup >= 3.0, (
            f"engine speedup {speedup:.2f}x below the 3x target "
            f"(serial {serial_s:.2f}s, engine {engine_s:.2f}s, "
            f"workers={BENCH_WORKERS})"
        )


HEADLINE_UAVS = 20
# The vectorisation win scales with the user count while the per-subset
# floor (connect step, per-round Python) does not, so the headline is
# never measured below 2000 users — at CI-smoke scale (n=800) the point
# would gate on the floor, not on the kernels this bench exists to pin.
HEADLINE_USERS = max(BENCH_USERS, 2000)
HEADLINE_SCENARIO = (
    f"paper-headline:n={HEADLINE_USERS},K={HEADLINE_UAVS},s={S}"
)
# The headline sweeps the full anchor enumeration (no candidate-pool cap):
# it is the point quoted in README/PERF and the one the pre-PR serial
# baseline was measured on.
HEADLINE_PARAMS = {"s": S, "gain_mode": "fast"}


def test_paper_headline_speedup(scenario_cache, perf_trajectory,
                                monkeypatch):
    """The headline point of the vectorised engine: the paper-scale
    scenario (K=20) solved with the bitset flow engine at workers 1/2/4
    on one prebuilt context, against a serial reference run whose flow
    engine is the scalar Kuhn DFS of ``tests/reference/kuhn.py``,
    injected by replacing the ``new_engine_for`` that ``appro_alg``
    builds its engines with.  The reference's ``appro_alg`` builds its
    own :class:`SolverContext` inside the timed region; the candidate
    loops are the same batched ones (the scalar per-candidate loops live
    in ``tests/reference/subsets.py``).

    The Kuhn engine realises other equal-value assignments, so in fast
    mode the direct-bound *ranking* may differ, and served counts are
    compared with a small tolerance instead of bit-equality (the
    golden-equivalence suite pins bit-equality across serial/parallel
    runs of the vectorised path itself).
    """
    import repro.core.approx as approx
    from tests.reference.kuhn import KuhnAssignment

    problem = scenario_cache(HEADLINE_USERS, HEADLINE_UAVS, seed=SEED)

    with monkeypatch.context() as patch:
        patch.setattr(approx, "new_engine_for",
                      lambda graph: KuhnAssignment(graph.num_users))
        start = time.perf_counter()
        reference = appro_alg(problem, **HEADLINE_PARAMS)
        reference_s = time.perf_counter() - start
    perf_trajectory.record(
        HEADLINE_SCENARIO, "approAlg+scalar-reference", reference.served,
        reference_s, workers=1,
        subsets_evaluated=reference.stats.subsets_evaluated,
    )

    context = SolverContext.from_problem(problem)
    headline_speedup = 0.0
    for workers in (1, 2, 4):
        start = time.perf_counter()
        engine = appro_alg(
            problem, workers=workers, context=context, **HEADLINE_PARAMS
        )
        wall = time.perf_counter() - start
        speedup = reference_s / wall if wall > 0 else float("inf")
        if workers == 1:
            headline_speedup = speedup
        perf_trajectory.record(
            HEADLINE_SCENARIO, "approAlg+engine", engine.served, wall,
            workers=workers, speedup=round(speedup, 2),
            subsets_evaluated=engine.stats.subsets_evaluated,
            context_build_s=round(context.build_seconds, 4),
            peak_rss_mb=peak_rss_mb(),
        )
        # Fast-mode realisation tolerance, one-sided: the reference
        # realises other equal-value assignments, so its direct bounds
        # can rank differently and the vectorised path may find a
        # *better* subset, but must never be meaningfully worse.  (At
        # n=3000, seed 7, bench scale, both serve 2784.)
        # Exact equality across the vectorised path's own variants is
        # pinned elsewhere (see docstring).
        assert engine.served >= reference.served - max(
            2, reference.served // 50
        )

    if os.environ.get("REPRO_BENCH_ASSERT_SPEEDUP"):
        assert headline_speedup >= 2.0, (
            f"paper-headline serial speedup {headline_speedup:.2f}x below "
            f"the 2x gate (reference {reference_s:.2f}s)"
        )


def test_fig4_smoke_wall_time(perf_trajectory):
    """Fig.-4 smoke (approAlg only, tracing disabled): the observability
    layer must cost nothing when off, so this wall-clock point is the
    regression sentinel for the instrumented hot path."""
    from repro import obs
    from repro.sim.experiments import fig4_sweep

    assert not obs.is_enabled(), "tracing must be off for the perf sentinel"
    ks = (2, 4, 6, 8, 10, 12)
    start = time.perf_counter()
    result = fig4_sweep(
        ks=ks, num_users=2000, s=2, scale="bench", seed=SEED,
        algorithms=("approAlg",), max_anchor_candidates=ANCHOR_POOL,
    )
    wall = time.perf_counter() - start
    served_total = sum(rec.served for _, rec in result.records)
    perf_trajectory.record(
        f"fig4-smoke:n=2000,ks={'-'.join(map(str, ks))}",
        "approAlg", served_total, wall, workers=1,
    )
    assert served_total > 0
    assert not obs.snapshot_spans(), "disabled run must record no spans"


def test_parallel_only_agrees_with_serial(scenario_cache, perf_trajectory):
    """Pure fan-out (no bound pruning) must also be bit-identical; its
    wall-clock point isolates the pool overhead from the pruning win."""
    problem = scenario_cache(BENCH_USERS, NUM_UAVS, seed=SEED)

    start = time.perf_counter()
    parallel = appro_alg(problem, workers=BENCH_WORKERS, **_params())
    wall = time.perf_counter() - start
    serial = appro_alg(problem, **_params())

    perf_trajectory.record(
        SCENARIO, "approAlg+parallel", parallel.served, wall,
        workers=BENCH_WORKERS,
        subsets_evaluated=parallel.stats.subsets_evaluated,
    )
    assert (parallel.served, parallel.anchors) == (serial.served, serial.anchors)
    assert parallel.stats.subsets_evaluated == serial.stats.subsets_evaluated
