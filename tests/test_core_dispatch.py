"""The fault-tolerant chunk dispatcher and its slicing invariants."""

from __future__ import annotations

import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.dispatch import ChunkDispatcher, FaultPolicy, chunk_slices

# -- chunk_slices properties -------------------------------------------------


@pytest.mark.parametrize("n", [0, -1, -100])
def test_degenerate_n_yields_no_chunks(n):
    assert chunk_slices(n, 4) == []


def test_degenerate_workers_yield_no_chunks():
    assert chunk_slices(100, 0) == []


@pytest.mark.parametrize("n", [1, 2, 3, 7, 63, 64, 65, 100, 257, 1000])
@pytest.mark.parametrize("workers", [1, 2, 3, 4, 8, 16])
def test_slices_partition_exactly_with_no_empty_chunk(n, workers):
    slices = chunk_slices(n, workers)
    assert all(hi > lo for lo, hi in slices), "empty chunk emitted"
    # Exact ordered partition of [0, n).
    cursor = 0
    for lo, hi in slices:
        assert lo == cursor
        cursor = hi
    assert cursor == n
    # Every worker gets something to do on small sweeps.
    assert len(slices) >= min(n, workers)
    # Bounded chunk size keeps progress/checkpoint granularity sane.
    assert all(hi - lo <= 64 for lo, hi in slices)


# -- FaultPolicy -------------------------------------------------------------


def test_policy_backoff_is_exponential_and_capped():
    policy = FaultPolicy(backoff_initial_s=0.1, backoff_max_s=0.5)
    assert policy.backoff_s(0) == pytest.approx(0.1)
    assert policy.backoff_s(1) == pytest.approx(0.2)
    assert policy.backoff_s(2) == pytest.approx(0.4)
    assert policy.backoff_s(3) == pytest.approx(0.5)
    assert policy.backoff_s(10) == pytest.approx(0.5)


def test_policy_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        FaultPolicy(max_attempts=0)
    with pytest.raises(ValueError, match="backoff"):
        FaultPolicy(backoff_initial_s=-1.0)


# -- dispatcher (real process pools; guarded) --------------------------------

# Worker entry points must be module-level to pickle.


def _sum_chunk(chunk_id, lo, hi, attempt):
    return sum(range(lo, hi))


def _flaky_chunk(chunk_id, lo, hi, attempt):
    if chunk_id == 1 and attempt == 0:
        raise RuntimeError("transient failure, first attempt only")
    return sum(range(lo, hi))


def _poison_chunk(chunk_id, lo, hi, attempt):
    if chunk_id == 0:
        raise RuntimeError("poisoned on every attempt")
    return sum(range(lo, hi))


def _killer_chunk(chunk_id, lo, hi, attempt):
    if chunk_id == 2 and attempt == 0:
        os._exit(23)
    return sum(range(lo, hi))


def _chunks(n=40, workers=4):
    return [
        (i, (lo, hi)) for i, (lo, hi) in enumerate(chunk_slices(n, workers))
    ]


def _serial(chunk_id, args):
    lo, hi = args
    return sum(range(lo, hi))


FAST = FaultPolicy(backoff_initial_s=0.0, backoff_max_s=0.0)


@pytest.mark.timeout_guard(120)
def test_dispatcher_clean_run():
    chunks = _chunks()
    got = {}
    stats = ChunkDispatcher(_sum_chunk, workers=2, policy=FAST).run(
        chunks, lambda cid, res: got.__setitem__(cid, res), _serial
    )
    assert got == {cid: _serial(cid, args) for cid, args in chunks}
    assert stats.chunks == len(chunks)
    assert stats.retries == 0
    assert stats.chunks_quarantined == 0


@pytest.mark.timeout_guard(120)
def test_dispatcher_retries_transient_exception():
    chunks = _chunks()
    got = {}
    submissions = []
    stats = ChunkDispatcher(_flaky_chunk, workers=2, policy=FAST).run(
        chunks, lambda cid, res: got.__setitem__(cid, res), _serial,
        on_submit=lambda cid, attempt: submissions.append((cid, attempt)),
    )
    assert got == {cid: _serial(cid, args) for cid, args in chunks}
    assert stats.retries >= 1
    assert stats.chunks_redispatched >= 1
    assert stats.chunks_quarantined == 0
    assert (1, 1) in submissions, "chunk 1 must be re-submitted"


@pytest.mark.timeout_guard(120)
def test_dispatcher_quarantines_poison_chunk():
    chunks = _chunks()
    got = {}
    policy = FaultPolicy(
        max_attempts=2, backoff_initial_s=0.0, backoff_max_s=0.0
    )
    stats = ChunkDispatcher(_poison_chunk, workers=2, policy=policy).run(
        chunks, lambda cid, res: got.__setitem__(cid, res), _serial
    )
    # Exactly once per chunk, poison included (via the serial fallback).
    assert got == {cid: _serial(cid, args) for cid, args in chunks}
    assert stats.chunks_quarantined >= 1
    assert stats.retries >= policy.max_attempts


@pytest.mark.timeout_guard(120)
def test_dispatcher_survives_worker_kill():
    chunks = _chunks()
    got = {}
    stats = ChunkDispatcher(_killer_chunk, workers=2, policy=FAST).run(
        chunks, lambda cid, res: got.__setitem__(cid, res), _serial
    )
    assert got == {cid: _serial(cid, args) for cid, args in chunks}
    assert stats.pool_respawns >= 1
    assert stats.chunks_redispatched >= 1


class _InlinePool:
    """A stand-in executor that runs each chunk at submit time; with
    ``broken_at`` set, that submission raises ``BrokenProcessPool`` as a
    pool whose worker died since the last wait does."""

    def __init__(self, broken_at: "int | None" = None):
        self.broken_at = broken_at
        self.submits = 0

    def submit(self, fn, *args):
        self.submits += 1
        if self.submits == self.broken_at:
            raise BrokenProcessPool("a worker died since the last wait")
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("broken_at", [1, 3])
def test_broken_pool_at_submit_respawns_and_requeues(broken_at):
    """No real processes: the first pool breaks on its ``broken_at``-th
    submit.  That chunk (and any still in flight) is re-run on one fresh
    pool, and every chunk is handled exactly once."""
    chunks = _chunks()
    pools = [_InlinePool(broken_at=broken_at), _InlinePool()]
    dispatcher = ChunkDispatcher(_sum_chunk, workers=2, policy=FAST)
    dispatcher._spawn = lambda: pools.pop(0)
    handled = []
    stats = dispatcher.run(
        chunks, lambda cid, res: handled.append((cid, res)), _serial
    )
    assert sorted(handled) == [(cid, _serial(cid, args)) for cid, args in chunks]
    assert stats.pool_respawns == 1
    assert stats.chunks_redispatched >= 1
    assert stats.chunks_quarantined == 0
    assert pools == []


@pytest.mark.timeout_guard(120)
def test_boundary_abort_propagates():
    class Abort(RuntimeError):
        pass

    def boundary():
        raise Abort("stop right there")

    with pytest.raises(Abort):
        ChunkDispatcher(_sum_chunk, workers=2, policy=FAST).run(
            _chunks(), lambda cid, res: None, _serial, boundary=boundary
        )


def test_dispatcher_workers_validated():
    with pytest.raises(ValueError, match="workers"):
        ChunkDispatcher(_sum_chunk, workers=0)
