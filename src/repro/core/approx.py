"""Algorithm 2: the O(sqrt(s/K))-approximation for the maximum connected
coverage problem (Section III-E).

Outer structure: enumerate anchor subsets ``V*_j`` of ``s`` candidate
locations; for each, run the anchored matroid greedy
(:mod:`repro.core.greedy`), connect the chosen locations via
MST-of-shortest-paths and staff relays (:mod:`repro.core.connect`), and
keep the feasible candidate serving the most users.  The final assignment
is recomputed with the exact max-flow of Section II-D (line 25).

The enumeration runs on a shared :class:`repro.core.context.SolverContext`
(all-pairs hop matrix + per-radio coverage bitsets) and is one loop
(:func:`_enumerate`) over the surviving subsets in lexicographic order:

* the connectivity prune is evaluated for all subsets at once
  (vectorised; decisions identical to the scalar reference);
* once the best served count reaches the served cap — ``min(Σ fleet
  capacities, total demand)``, which no deployment can exceed — the
  subsets whose anchors come after the best's are skipped (counted in
  ``ApproxStats.subsets_bound_skipped``).  They could only tie, and a tie
  goes to the lexicographically first anchors, so the stop is lossless,
  also when a resumed best comes from a later range than the one being
  filled in;
* ``workers=N`` fans chunks of the surviving subsets out over a process
  pool; each worker receives the context once via the pool initializer,
  and per-chunk bests merge under the canonical tie-break (served
  descending, then anchors lexicographic) — the same winner the
  in-parent loop produces.

On top of those sits the resilience layer (this is what makes long runs
crash-safe; see ``docs/RESILIENCE.md``):

* the fan-out goes through :class:`repro.core.dispatch.ChunkDispatcher`,
  so a dead worker breaks only its in-flight chunks — the pool respawns
  with exponential backoff, lost chunks are re-dispatched, and chunks
  that keep failing are quarantined into serial in-parent evaluation.
  Because a failed future never delivered a result and the merge is
  order-independent, the recovered result is bit-identical to the serial
  loop no matter what was killed.
* ``checkpoint=CheckpointConfig(...)`` snapshots progress atomically at
  chunk/subset boundaries (:mod:`repro.core.checkpoint`); with
  ``resume=True`` a killed run restores the completed ranges, running
  counters and best-so-far and finishes to the identical assignment.
* a :func:`repro.util.interrupt.graceful_shutdown` drain request makes
  the sweep stop at the next chunk boundary, flush a final checkpoint and
  raise :class:`repro.util.interrupt.SolveInterrupted` with a partial
  summary instead of dying mid-chunk.
* ``chaos`` accepts a :class:`repro.ops.chaos.ChaosSpec` (duck-typed —
  core never imports :mod:`repro.ops`) that injects deterministic worker
  kills / exceptions / delays at chosen chunk ids, for the fault-
  tolerance tests and the CI chaos job.

Scaling knobs that trade fidelity for speed (``anchor_candidates`` /
``max_anchor_candidates`` restrict the anchor pool to the best-covering
locations) remain available; benches document when they use them.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from repro import obs
from repro.core.assignment import final_assignment
from repro.core.checkpoint import (
    CheckpointConfig,
    SolveCheckpoint,
    missing_ranges,
    solve_run_key,
)
from repro.core.connect import connect_and_deploy
from repro.core.context import SolverContext, prunable_mask
from repro.core.dispatch import ChunkDispatcher, FaultPolicy
from repro.core.dispatch import chunk_slices as _chunk_slices
from repro.core.greedy import anchored_greedy
from repro.core.problem import ProblemInstance
from repro.core.segments import SegmentPlan, optimal_segments
from repro.flow.bipartite import new_engine_for
from repro.network.deployment import Deployment
from repro.util.interrupt import SolveInterrupted, interrupt_requested


@dataclass
class ApproxStats:
    """Bookkeeping about one appro_alg run.

    ``subsets_total == subsets_pruned + subsets_bound_skipped +
    subsets_evaluated`` always holds; ``subsets_bound_skipped`` counts the
    subsets the served-cap stop skipped.  A pooled sweep stops per chunk,
    so its split against ``subsets_evaluated`` may differ between worker
    counts — the returned solution never does.

    The resilience fields record what fault tolerance had to do:
    ``retries`` counts failed chunk futures, ``chunks_redispatched`` the
    re-submissions they caused, ``chunks_quarantined`` the serial
    in-parent fallbacks, ``pool_respawns`` the executor rebuilds.
    ``resume_chunks_skipped`` / ``resume_subsets_skipped`` say how much
    completed work a ``--resume`` restored instead of recomputing, and
    ``checkpoint_writes`` how many durable snapshots were flushed.
    """

    subsets_total: int = 0
    subsets_pruned: int = 0
    subsets_evaluated: int = 0
    subsets_infeasible: int = 0
    subsets_bound_skipped: int = 0
    fallback_used: bool = False
    workers: int = 1
    context_build_s: float = 0.0
    retries: int = 0
    chunks_redispatched: int = 0
    chunks_quarantined: int = 0
    pool_respawns: int = 0
    resume_chunks_skipped: int = 0
    resume_subsets_skipped: int = 0
    checkpoint_writes: int = 0


@dataclass
class ApproxResult:
    """The algorithm's output: a feasible deployment plus diagnostics."""

    deployment: Deployment
    served: int
    anchors: tuple
    plan: "SegmentPlan | None"
    stats: ApproxStats = field(default_factory=ApproxStats)


def _check_integer(value: object, name: str) -> None:
    """Reject anything but a Python or numpy integer (``bool`` included),
    naming the offending argument."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_pool_room(max_anchor_candidates: "int | None", s: int) -> None:
    """Reject an anchor pool cap below ``s``."""
    if max_anchor_candidates is not None and max_anchor_candidates < s:
        raise ValueError(
            f"max_anchor_candidates = {max_anchor_candidates} is smaller "
            f"than s = {s}: the restricted anchor pool could never host an "
            "anchor subset; raise max_anchor_candidates or lower s"
        )


def _anchor_pool(
    problem: ProblemInstance,
    anchor_candidates: "list | None",
    max_anchor_candidates: "int | None",
    s: int,
    context: "SolverContext | None" = None,
) -> list:
    """The locations anchors may be drawn from.  A capped pool keeps the
    locations that cover the most (demand-weighted) users under the
    largest-capacity UAV's radio, ties to lower index; the counts are
    ``context``'s, built here when none is given."""
    _check_pool_room(max_anchor_candidates, s)
    if anchor_candidates is not None:
        pool = sorted({int(v) for v in anchor_candidates})
        for v in pool:
            if not (0 <= v < problem.num_locations):
                raise IndexError(f"anchor candidate {v} outside location range")
    else:
        pool = list(range(problem.num_locations))
    if max_anchor_candidates is not None and len(pool) > max_anchor_candidates:
        if context is None:
            context = SolverContext.from_problem(problem)
        counts = context.counts_for_uav(problem.capacity_order()[0])
        pool = np.array(pool, dtype=np.int64)
        ranked = pool[np.lexsort((pool, -counts[pool].astype(np.int64)))]
        pool = sorted(ranked[:max_anchor_candidates].tolist())
    return pool


def _fallback_single(problem: ProblemInstance) -> ApproxResult:
    """Last-resort feasible solution: the strongest UAV alone at the single
    location covering the most users."""
    graph = problem.graph
    order = problem.capacity_order()
    strongest = problem.fleet[order[0]]
    best_loc = max(
        range(problem.num_locations),
        key=lambda v: (graph.coverage_weight(v, strongest), -v),
    )
    deployment = final_assignment(
        graph, problem.fleet, {order[0]: best_loc}
    )
    stats = ApproxStats(fallback_used=True)
    return ApproxResult(
        deployment=deployment,
        served=deployment.served_count,
        anchors=(best_loc,),
        plan=None,
        stats=stats,
    )


# -- subset evaluation (shared by the in-parent sweep and pool workers) -------


def _evaluate_subset(
    problem: ProblemInstance,
    subset: tuple,
    plan: SegmentPlan,
    order: list,
    gain_mode: str,
    augment_leftover: bool,
    context: SolverContext,
    engine: "IncrementalAssignment | None" = None,
) -> "tuple[int, dict] | None":
    """Greedy + connect for one anchor subset; ``(served, placements)`` or
    ``None`` when the connected subgraph would exceed ``K`` UAVs.

    ``engine`` optionally supplies a warm flow engine shared across the
    sweep: the evaluation runs inside a :meth:`~repro.flow.bipartite.
    IncrementalAssignment.fork` scope that is rolled back afterwards, so
    adjacent subsets reuse one engine instead of rebuilding it."""
    if engine is not None:
        engine.fork()
    try:
        with obs.span("approx.subset", anchors=list(subset)):
            with obs.span("approx.greedy"):
                greedy = anchored_greedy(
                    problem, list(subset), plan, order,
                    gain_mode=gain_mode, context=context, engine=engine,
                )
            with obs.span("approx.connect"):
                solution = connect_and_deploy(
                    problem,
                    greedy,
                    order,
                    augment_leftover=augment_leftover,
                    gain_mode=gain_mode,
                    context=context,
                )
        if solution is None:
            return None
        return solution.served, solution.placements
    finally:
        if engine is not None:
            engine.rollback_fork()


def _better(candidate: "tuple[int, dict, tuple]",
            best: "tuple[int, dict, tuple] | None") -> bool:
    """Canonical tie-break: served descending, then anchors lexicographic.

    In lexicographic visit order the tie clause never fires (later subsets
    compare greater), so this reproduces the historical first-strict-winner
    exactly; under the pooled merge it pins the same winner regardless of
    execution order.
    """
    if best is None:
        return True
    return candidate[0] > best[0] or (
        candidate[0] == best[0] and candidate[2] < best[2]
    )


def _subset_array(pool: list, s: int) -> np.ndarray:
    total = math.comb(len(pool), s)
    arr = np.fromiter(
        chain.from_iterable(combinations(pool, s)),
        dtype=np.int32,
        count=total * s,
    )
    return arr.reshape(total, s)


def _served_cap(problem: ProblemInstance) -> int:
    """No deployment serves more than the fleet's total capacity or the
    total demand (users, or demand units on a cell graph), so a best that
    reaches this cap cannot be beaten."""
    total_units = getattr(problem.graph, "total_demand", problem.num_users)
    return min(sum(uav.capacity for uav in problem.fleet), total_units)


def _eval_chunk(problem, context, plan, order, eval_kw,
                subsets: np.ndarray, cap: int, engine=None, best=None):
    """Evaluate one contiguous chunk of subsets, starting from ``best``
    (the in-parent sweep's running best; ``None`` in pool workers): the
    best plus (evaluated, infeasible, skipped) counts.  The served-cap
    stop skips the rest of the chunk once the best is at ``cap`` with
    smaller anchors: those subsets could only tie and lose the tie.  The
    anchor check keeps it lossless when a resumed best comes from a
    later range.  Shared by every path, so each gives the same result."""
    if engine is None:
        engine = new_engine_for(problem.graph)
    evaluated = infeasible = 0
    for row in subsets:
        subset = tuple(int(x) for x in row)
        if best is not None and best[0] >= cap and best[2] < subset:
            break
        evaluated += 1
        outcome = _evaluate_subset(
            problem, subset, plan, order, context=context, engine=engine,
            **eval_kw
        )
        if outcome is None:
            infeasible += 1
        else:
            candidate = (outcome[0], outcome[1], subset)
            if _better(candidate, best):
                best = candidate
    return best, evaluated, infeasible, len(subsets) - evaluated


# -- process-parallel fan-out ------------------------------------------------

_WORKER_STATE: dict = {}


def _worker_init(problem, context, plan, order, eval_kw, cap,
                 obs_enabled: bool = False, chaos=None) -> None:
    """Pool initializer: adopt the shipped context so every hop/coverage
    lookup in this process is a warm-cache hit.  Observability state is
    reset (forked workers inherit the parent's buffers) and re-enabled
    only when the parent traces.  ``chaos`` (a duck-typed
    ``repro.ops.chaos.ChaosSpec``) is stashed for per-chunk injection."""
    obs.worker_init(obs_enabled)
    context.install_into(problem.graph)
    _WORKER_STATE.update(
        problem=problem, context=context, plan=plan, order=order,
        eval_kw=eval_kw, cap=cap, chaos=chaos,
    )


def _worker_chunk(chunk_id: int, subsets: np.ndarray, attempt: int = 0):
    """Evaluate one chunk of surviving subsets in a pool worker; returns
    the chunk result, the worker pid and the worker's observability delta
    (spans + metrics, ``None`` when tracing is off).  Any configured chaos
    event for ``(chunk_id, attempt)`` fires *before* evaluation, so a
    killed chunk never ships a partial result."""
    state = _WORKER_STATE
    if state["chaos"] is not None:
        state["chaos"].apply(chunk_id, attempt)
    result = _eval_chunk(
        state["problem"], state["context"], state["plan"], state["order"],
        state["eval_kw"], subsets, state["cap"],
    )
    return result, os.getpid(), obs.export_obs_state()


def _drain(ckpt: "SolveCheckpoint | None", best, s: int, done: int,
           total: int) -> None:
    """A graceful-shutdown request reached a chunk boundary: flush a final
    checkpoint (when configured) and surface the partial run."""
    path = None
    if ckpt is not None:
        ckpt.flush()
        path = ckpt.path
    obs.counter_inc("approx.interrupted")
    raise SolveInterrupted(
        f"solve interrupted at subset {done}/{total} (s={s}); "
        + (f"checkpoint flushed to {path}" if path is not None
           else "no checkpoint configured"),
        checkpoint_path=path,
        partial={
            "s": s, "done": int(done), "total": int(total),
            "best_served": None if best is None else int(best[0]),
        },
    )


def _enumerate(
    problem, context, plan, order, eval_kw, stats, progress,
    subsets, prunable, workers, s,
    ckpt: "SolveCheckpoint | None" = None, chaos=None,
    policy: "FaultPolicy | None" = None,
):
    """The anchor-subset sweep: evaluate every surviving subset in
    lexicographic order and return the canonical best.

    Work is split into chunks of surviving-subset indices; every finished
    chunk goes through one ``handle`` that merges its best, advances the
    counters, progress and checkpoint, and drains on an interrupt.  With
    one worker (or too few subsets to split) the chunks are single
    subsets evaluated in the parent on one warm flow engine; otherwise
    they fan out over :class:`ChunkDispatcher`.  Either way the
    served-cap stop lives in :func:`_eval_chunk`."""
    total = stats.subsets_total
    stats.subsets_pruned = int(prunable.sum())
    sub = subsets[~prunable]
    n = int(sub.shape[0])
    cap = _served_cap(problem)
    pooled = workers > 1 and n >= 2 * workers

    best: "tuple[int, dict, tuple] | None" = None
    done = stats.subsets_pruned
    if ckpt is not None:
        ckpt.enter_level(s, n)
        if ckpt.resumed:
            # Adopt the level's counters; the pruned count is recomputed.
            best = ckpt.best
            stats.subsets_evaluated = ckpt.counts["evaluated"]
            stats.subsets_infeasible = ckpt.counts["infeasible"]
            stats.subsets_bound_skipped = ckpt.counts["bound_skipped"]
            stats.resume_chunks_skipped += ckpt.resumed_chunks
            stats.resume_subsets_skipped += ckpt.resumed_units
            done += ckpt.resumed_units
    if done:
        obs.counter_inc("approx.subsets_done", done)
        if progress is not None:
            progress(done, total)

    def handle(lo: int, hi: int, result) -> None:
        nonlocal best, done
        chunk_best, evaluated, infeasible, skipped = result
        stats.subsets_evaluated += evaluated
        stats.subsets_infeasible += infeasible
        stats.subsets_bound_skipped += skipped
        if chunk_best is not None and _better(chunk_best, best):
            best = chunk_best
        done += hi - lo
        obs.counter_inc("approx.subsets_done", hi - lo)
        if progress is not None:
            progress(done, total)
        if ckpt is not None:
            ckpt.mark_range(lo, hi, chunk=pooled)
            ckpt.record_counts(
                stats.subsets_pruned, stats.subsets_evaluated,
                stats.subsets_infeasible, stats.subsets_bound_skipped,
            )
            ckpt.set_best(best)
            ckpt.maybe_flush()
        if interrupt_requested():
            _drain(ckpt, best, s, done, total)

    # Only the ranges a resume did not already cover are visited; the
    # checkpoint stores completed ranges as half-open intervals, so any
    # chunking of the gaps resumes any other.
    gaps = ([(0, n)] if ckpt is None
            else missing_ranges(n, ckpt.completed))
    if not pooled:
        engine = new_engine_for(problem.graph)
        for glo, ghi in gaps:
            for lo in range(glo, ghi):
                handle(lo, lo + 1, _eval_chunk(
                    problem, context, plan, order, eval_kw,
                    sub[lo:lo + 1], cap, engine, best,
                ))
        return best

    ranges = [(glo + lo, glo + hi) for glo, ghi in gaps
              for lo, hi in _chunk_slices(ghi - glo, workers)]
    worker_done: dict = {}

    def absorb(chunk_id: int, result) -> None:
        chunk_result, pid, payload = result
        obs.absorb_obs_state(payload)
        lo, hi = ranges[chunk_id]
        # Per-worker absorption lands in gauges, so worker skew is visible
        # live without perturbing the done counter.
        worker_done[pid] = worker_done.get(pid, 0) + (hi - lo)
        obs.gauge_set(f"approx.worker.{pid}.subsets", worker_done[pid])
        handle(lo, hi, chunk_result)

    def serial_eval(chunk_id: int, args):
        # Quarantine: the chunk exhausted its pool attempts; evaluate it
        # in the parent, where a genuine solver bug raises as itself.
        (chunk_subsets,) = args
        return (_eval_chunk(problem, context, plan, order, eval_kw,
                            chunk_subsets, cap), os.getpid(), None)

    def on_submit(chunk_id: int, attempt: int) -> None:
        # Chaos accounting happens parent-side at submission: a killed
        # worker can never report what was injected into it.
        if chaos is not None:
            event = chaos.event_for(chunk_id, attempt)
            if event is not None:
                obs.counter_inc(f"chaos.injected.{event.action}")

    initargs = (problem, context, plan, order, eval_kw, cap,
                obs.is_enabled(), chaos)
    dispatcher = ChunkDispatcher(
        _worker_chunk, workers,
        initializer=_worker_init, initargs=initargs, policy=policy,
    )
    chunks = [(chunk_id, (sub[lo:hi],))
              for chunk_id, (lo, hi) in enumerate(ranges)]
    try:
        dispatcher.run(chunks, absorb, serial_eval, on_submit=on_submit)
    finally:
        stats.retries += dispatcher.stats.retries
        stats.chunks_redispatched += dispatcher.stats.chunks_redispatched
        stats.chunks_quarantined += dispatcher.stats.chunks_quarantined
        stats.pool_respawns += dispatcher.stats.pool_respawns
    return best


def _carry_resilience(child: ApproxStats, parent: ApproxStats,
                      ckpt: "SolveCheckpoint | None") -> None:
    """Fold a fallback level's fault-tolerance accounting into the stats
    the caller actually sees (the child result's)."""
    child.retries += parent.retries
    child.chunks_redispatched += parent.chunks_redispatched
    child.chunks_quarantined += parent.chunks_quarantined
    child.pool_respawns += parent.pool_respawns
    child.resume_chunks_skipped += parent.resume_chunks_skipped
    child.resume_subsets_skipped += parent.resume_subsets_skipped
    if ckpt is not None:
        child.checkpoint_writes = ckpt.writes


def appro_alg(
    problem: ProblemInstance,
    s: int = 3,
    anchor_candidates: "list | None" = None,
    max_anchor_candidates: "int | None" = None,
    augment_leftover: bool = True,
    gain_mode: str = "exact",
    progress: "object | None" = None,
    workers: int = 1,
    context: "SolverContext | None" = None,
    checkpoint: "CheckpointConfig | None" = None,
    chaos=None,
    policy: "FaultPolicy | None" = None,
    _ckpt_state: "SolveCheckpoint | None" = None,
) -> ApproxResult:
    """Run Algorithm 2 with parameter ``s`` (paper default 3).

    ``s`` is clamped to ``K``; if no anchor subset of size ``s`` yields a
    feasible connected deployment the algorithm retries with smaller ``s``
    and ultimately falls back to a single-UAV deployment (always feasible).
    ``augment_leftover`` additionally deploys the UAVs Algorithm 2 would
    leave unused (see :func:`repro.core.connect.connect_and_deploy`); pass
    ``False`` for the paper-strict behaviour.  ``gain_mode`` is ``"exact"``
    (paper-faithful marginal gains) or ``"fast"`` (direct-bound candidate
    ranking; see :func:`repro.core.greedy.anchored_greedy`).

    ``progress``, if given, is called as ``progress(done, total)``; ``done``
    is monotonically non-decreasing across the whole run, including the
    ``s - 1`` fallback retries, during which ``total`` grows by the retry's
    subset count (one continuous series, never a restart from zero).

    Engine knobs — the result never depends on them:

    * ``workers`` > 1 fans subset evaluation out over a process pool; the
      merged result is identical to the serial one, even when workers die
      mid-sweep (lost chunks are re-dispatched, poison chunks quarantined
      to serial in-parent evaluation; see :mod:`repro.core.dispatch`).
    * ``context`` reuses a prebuilt :class:`SolverContext` (e.g. across
      repeated solves of the same instance); by default one is built and
      its build time recorded in ``stats.context_build_s``.

    Resilience knobs:

    * ``checkpoint`` (:class:`repro.core.checkpoint.CheckpointConfig`)
      enables durable progress snapshots; with ``checkpoint.resume`` a
      matching snapshot restores completed work, and the run finishes to
      the bit-identical final assignment.  A snapshot from *different*
      work is ignored and overwritten (``checkpoint.mismatches``).
    * ``chaos`` (:class:`repro.ops.chaos.ChaosSpec`, duck-typed) injects
      deterministic worker faults — test/ops harness only.
    * ``policy`` (:class:`repro.core.dispatch.FaultPolicy`) tunes the
      retry budget and respawn backoff of the parallel fan-out.

    Under a :func:`repro.util.interrupt.graceful_shutdown` drain request
    the run stops at the next chunk boundary, flushes a final
    checkpoint and raises :class:`SolveInterrupted` with a partial
    summary.
    """
    _check_integer(s, "s")
    _check_integer(workers, "workers")
    if max_anchor_candidates is not None:
        _check_integer(max_anchor_candidates, "max_anchor_candidates")
    if anchor_candidates is not None:
        anchor_candidates = list(anchor_candidates)
        for v in anchor_candidates:
            _check_integer(v, "anchor_candidates entry")
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    if workers < 1:
        raise ValueError(f"workers must be a positive integer, got {workers}")
    s = min(s, problem.num_uavs)
    _check_pool_room(max_anchor_candidates, s)
    stats = ApproxStats(workers=workers)
    if context is None:
        with obs.span("approx.context_build"):
            context = SolverContext.from_problem(problem)
        stats.context_build_s = context.build_seconds
    elif not context.matches(problem):
        raise ValueError(
            "supplied SolverContext does not match the problem shape "
            f"(context: {context.num_locations} locations, "
            f"{context.num_users} users, {context.num_uavs} UAVs)"
        )
    pool = _anchor_pool(
        problem, anchor_candidates, max_anchor_candidates, s, context
    )
    if len(pool) < s:
        raise ValueError(
            f"anchor pool of {len(pool)} locations cannot host s = {s} anchors"
        )

    obs.counter_inc("approx.runs")
    order = problem.capacity_order()
    plan = optimal_segments(problem.num_uavs, s)

    eval_kw = dict(gain_mode=gain_mode, augment_leftover=augment_leftover)
    ckpt = _ckpt_state
    if ckpt is None and checkpoint is not None:
        # run_key is s-independent: the same checkpoint file carries the
        # whole run including its s-1 fallback levels.
        run_key = solve_run_key(problem, pool, eval_kw, checkpoint.key)
        ckpt = SolveCheckpoint(checkpoint, run_key)

    def recurse_fallback() -> ApproxResult:
        inner_progress = progress
        if progress is not None:
            base = stats.subsets_total

            def inner_progress(done, total, _cb=progress, _base=base):
                _cb(_base + done, _base + total)

        smaller = appro_alg(
            problem,
            s=s - 1,
            anchor_candidates=anchor_candidates,
            max_anchor_candidates=max_anchor_candidates,
            augment_leftover=augment_leftover,
            gain_mode=gain_mode,
            progress=inner_progress,
            workers=workers,
            context=context,
            chaos=chaos,
            policy=policy,
            _ckpt_state=ckpt,
        )
        smaller.stats.fallback_used = True
        _carry_resilience(smaller.stats, stats, ckpt)
        return smaller

    # A previous (checkpointed) run may already have proved that level s
    # yields no feasible candidate: then fast-forward past the enumeration.
    best = None
    if ckpt is None or not ckpt.is_exhausted(s):
        subsets = _subset_array(pool, s)
        stats.subsets_total = subsets.shape[0]
        # Announce the denominator before enumerating so live progress
        # (repro.obs.sampler) can render a completion fraction and an
        # ETA; the matching approx.subsets_done counter advances
        # parent-side at every chunk boundary, so done/planned is exact
        # for any worker count (and sums across s-1 fallbacks).
        obs.counter_inc("approx.subsets_planned", stats.subsets_total)
        prunable = prunable_mask(context, subsets, problem.num_uavs)
        # The enumeration is the allocation hot spot; bracket it with the
        # profiler's memory watermark (shared no-op unless one is active).
        with obs.span("approx.enumerate", s=s,
                      subsets=int(stats.subsets_total), workers=workers), \
                obs.stage_watermark("approx.enumerate"):
            best = _enumerate(
                problem, context, plan, order, eval_kw, stats, progress,
                subsets, prunable, workers, s,
                ckpt=ckpt, chaos=chaos, policy=policy,
            )
        obs.counter_inc("approx.subsets_pruned", stats.subsets_pruned)
        obs.counter_inc("approx.subsets_evaluated", stats.subsets_evaluated)
        obs.counter_inc("approx.subsets_infeasible",
                        stats.subsets_infeasible)
        obs.counter_inc("approx.subsets_bound_skipped",
                        stats.subsets_bound_skipped)
        if best is None and ckpt is not None:
            ckpt.mark_exhausted(s)

    if best is None:
        obs.counter_inc("approx.fallbacks")
        if s > 1:
            return recurse_fallback()
        result = _fallback_single(problem)
        _carry_resilience(result.stats, stats, ckpt)
        return result

    if ckpt is not None:
        ckpt.set_best(best)
        ckpt.mark_complete()
        stats.checkpoint_writes = ckpt.writes

    served, placements, anchors = best
    with obs.span("approx.final_assignment"):
        deployment = final_assignment(
            problem.graph, problem.fleet, placements
        )
    assert deployment.served_count == served, (
        f"incremental engine served {served} but exact max-flow served "
        f"{deployment.served_count}; the two must agree"
    )
    return ApproxResult(
        deployment=deployment,
        served=deployment.served_count,
        anchors=anchors,
        plan=plan,
        stats=stats,
    )
