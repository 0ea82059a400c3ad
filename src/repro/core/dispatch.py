"""Fault-tolerant chunk dispatch over a respawnable process pool.

The parallel subset sweep used to die with the first dead worker: one
OOM-killed process breaks the whole ``ProcessPoolExecutor`` and every
pending future with it.  :class:`ChunkDispatcher` makes the fan-out
survive any worker failure pattern while keeping results bit-identical
to the serial loop:

* a chunk whose future fails (worker death → ``BrokenProcessPool``, or
  an in-worker exception) is **re-dispatched**, with the pool respawned
  after an exponential backoff when it broke; so is a chunk whose
  ``submit`` finds the pool already broken by a worker that died since
  the last wait;
* chunks lost as innocent bystanders of a pool breakage are
  re-dispatched too (the executor cannot tell which in-flight chunk
  killed it, so every in-flight chunk pays one attempt — conservative
  but safe);
* a chunk that keeps failing is **quarantined** after
  :attr:`FaultPolicy.max_attempts` pool attempts and evaluated serially
  in the parent (``serial_eval``), where a genuine solver bug finally
  surfaces as its real exception instead of an opaque pool error.

Correctness requires only that the parent ``handle`` callback runs
exactly *once* per chunk — a failed future never delivered its result,
so a re-dispatch cannot double-count — and that result merging is
order-independent, which the canonical tie-break in
:mod:`repro.core.approx` provides.

Counters (through :mod:`repro.obs`): ``dispatch.retries``,
``dispatch.chunks_redispatched``, ``dispatch.chunks_quarantined``,
``dispatch.pool_respawns``.
"""

from __future__ import annotations

import math
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass

from repro import obs

#: Minimum subsets a chunk should carry before the sweep is split finer
#: than one chunk per worker (see :func:`chunk_slices`).
MIN_CHUNK_WORK = 8


def chunk_slices(n: int, workers: int) -> list:
    """Contiguous half-open chunk bounds over ``[0, n)``.

    Guarantees (property-tested):

    * never an empty chunk — ``n <= 0`` returns ``[]`` outright, and
      every emitted ``(lo, hi)`` has ``hi > lo`` (a degenerate chunk
      would waste a whole pool round-trip on pickling nothing);
    * the chunks partition ``[0, n)`` exactly, in order;
    * at least ``min(n, workers)`` chunks, so a small sweep still
      occupies every worker instead of serialising behind one;
    * chunk size capped at 64 for responsive progress, cooperative
      aborts, and bounded checkpoint loss;
    * a minimum-work floor: beyond ``workers`` chunks, extra splits are
      only taken while each chunk keeps at least ``MIN_CHUNK_WORK``
      subsets, so tiny sweeps are not shredded into per-item chunks
      whose pool round-trip (pickle + IPC) costs more than the solve.
    """
    if n <= 0 or workers < 1:
        return []
    # Aim for ~4 chunks per worker (load balancing against uneven chunk
    # cost) but never split so far that chunks drop below the work floor;
    # always emit at least one chunk per worker.
    target = max(workers, min(workers * 4, n // MIN_CHUNK_WORK))
    size = max(1, min(64, n // max(workers, 1), math.ceil(n / target)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


@dataclass(frozen=True)
class FaultPolicy:
    """Retry/backoff budget for chunk dispatch.

    ``max_attempts`` counts *pool* attempts per chunk; at the budget the
    chunk falls back to serial in-parent evaluation (quarantine), so the
    sweep always terminates with the exact result.
    """

    max_attempts: int = 3
    backoff_initial_s: float = 0.05
    backoff_max_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_initial_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff durations must be non-negative")

    def backoff_s(self, respawn_index: int) -> float:
        """Exponential backoff before the ``respawn_index``-th respawn."""
        return min(
            self.backoff_max_s,
            self.backoff_initial_s * (2 ** max(0, respawn_index)),
        )


@dataclass
class DispatchStats:
    """What the dispatcher had to do to finish the sweep."""

    chunks: int = 0
    retries: int = 0               # failed futures observed
    chunks_redispatched: int = 0   # re-submissions after a loss
    chunks_quarantined: int = 0    # serial in-parent fallbacks
    pool_respawns: int = 0


class ChunkDispatcher:
    """Run ``chunk_fn`` over chunks with retry, respawn and quarantine.

    ``chunk_fn`` must be picklable and is invoked in a worker as
    ``chunk_fn(chunk_id, *args, attempt)``.  ``handle(chunk_id, result)``
    runs in the parent exactly once per chunk; ``serial_eval(chunk_id,
    args)`` must produce a result of the same shape for quarantined
    chunks.  ``boundary()`` (optional) runs after every handled chunk —
    the checkpoint-flush / interrupt-drain hook; it may raise to abort
    the sweep (pending futures are cancelled, the pool shut down).
    ``on_submit(chunk_id, attempt)`` (optional) observes every pool
    submission — deterministic chaos accounting hangs off it.
    """

    def __init__(
        self,
        chunk_fn,
        workers: int,
        initializer=None,
        initargs: tuple = (),
        policy: "FaultPolicy | None" = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.chunk_fn = chunk_fn
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.policy = policy if policy is not None else FaultPolicy()
        self.stats = DispatchStats()

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=self.initializer,
            initargs=self.initargs,
        )

    def run(
        self,
        chunks: "list",
        handle,
        serial_eval,
        boundary=None,
        on_submit=None,
    ) -> DispatchStats:
        """Dispatch ``chunks`` (``[(chunk_id, args_tuple), ...]``) until
        every chunk has been handled exactly once."""
        self.stats.chunks = len(chunks)
        queue: deque = deque(
            (chunk_id, tuple(args), 0) for chunk_id, args in chunks
        )
        executor: "ProcessPoolExecutor | None" = None
        futures: dict = {}

        def finish(chunk_id: int, result: object) -> None:
            handle(chunk_id, result)
            if boundary is not None:
                boundary()

        try:
            while queue or futures:
                # Drain the queue: quarantine over-budget chunks, submit
                # the rest to a (possibly fresh) pool.
                broken = False
                while queue and not broken:
                    chunk_id, args, attempt = queue.popleft()
                    if attempt >= self.policy.max_attempts:
                        self.stats.chunks_quarantined += 1
                        obs.counter_inc("dispatch.chunks_quarantined")
                        finish(chunk_id, serial_eval(chunk_id, args))
                        continue
                    if executor is None:
                        executor = self._spawn()
                    if attempt > 0:
                        self.stats.chunks_redispatched += 1
                        obs.counter_inc("dispatch.chunks_redispatched")
                    if on_submit is not None:
                        on_submit(chunk_id, attempt)
                    try:
                        future = executor.submit(
                            self.chunk_fn, chunk_id, *args, attempt
                        )
                    except BrokenExecutor:
                        # A worker died since the last wait: the chunk
                        # never ran.  Respawn below, like a broken future.
                        broken = True
                        queue.append((chunk_id, args, attempt + 1))
                    else:
                        futures[future] = (chunk_id, args, attempt)
                if not (futures or broken):
                    continue
                finished = () if broken else wait(
                    set(futures), return_when=FIRST_COMPLETED
                )[0]
                for future in finished:
                    chunk_id, args, attempt = futures.pop(future)
                    try:
                        result = future.result()
                    except BrokenExecutor:
                        broken = True
                        self.stats.retries += 1
                        obs.counter_inc("dispatch.retries")
                        queue.append((chunk_id, args, attempt + 1))
                    except Exception:
                        # The worker survived but the chunk raised
                        # (injected chaos, or a genuine bug that will
                        # resurface deterministically in quarantine).
                        self.stats.retries += 1
                        obs.counter_inc("dispatch.retries")
                        queue.append((chunk_id, args, attempt + 1))
                    else:
                        finish(chunk_id, result)
                if broken or (
                    executor is not None
                    and getattr(executor, "_broken", False)
                ):
                    # The pool is dead: every in-flight chunk is lost.
                    # Their results were never delivered, so re-running
                    # them cannot double-count.
                    for chunk_id, args, attempt in futures.values():
                        queue.append((chunk_id, args, attempt + 1))
                    futures.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
                    delay = self.policy.backoff_s(self.stats.pool_respawns)
                    self.stats.pool_respawns += 1
                    obs.counter_inc("dispatch.pool_respawns")
                    if delay > 0:
                        time.sleep(delay)
        except BaseException:
            if executor is not None:
                for future in futures:
                    future.cancel()
                executor.shutdown(wait=False, cancel_futures=True)
            raise
        if executor is not None:
            executor.shutdown(wait=True)
        return self.stats
