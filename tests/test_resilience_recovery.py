"""Crash-safety guarantees, end to end: chaos-killed workers, poison
chunks, checkpoint/resume and graceful SIGINT drain all yield results
bit-identical to the undisturbed serial loop."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro import obs
from repro.core.approx import appro_alg
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_KIND,
    CheckpointConfig,
)
from repro.core.dispatch import FaultPolicy
from repro.ops.chaos import ChaosEvent, ChaosSpec
from repro.util.interrupt import (
    SolveInterrupted,
    clear_interrupt,
    graceful_shutdown,
    request_interrupt,
)
from repro.workload.scenarios import paper_scenario
from tests.conftest import make_line_instance
from tests.test_reference_sweep import reference_sweep

SEEDS = [1, 3, 8]

#: No backoff sleeps in tests: retry semantics are what's under test.
FAST = FaultPolicy(backoff_initial_s=0.0, backoff_max_s=0.0)


def _problem(seed, users=130, uavs=4):
    return paper_scenario(
        num_users=users, num_uavs=uavs, scale="small", seed=seed
    )


def _same(a, b):
    assert a.served == b.served
    assert a.anchors == b.anchors
    assert a.deployment.placements == b.deployment.placements
    assert a.deployment.assignment == b.deployment.assignment
    assert a.stats.subsets_total == b.stats.subsets_total


# -- chaos: the sweep survives any worker failure pattern --------------------


@pytest.mark.timeout_guard(180)
@pytest.mark.parametrize("seed", SEEDS)
def test_killed_worker_bit_identical_to_serial(seed):
    problem = _problem(seed)
    serial = appro_alg(problem, s=2)
    chaotic = appro_alg(
        problem, s=2, workers=2, chaos=ChaosSpec.kills(1), policy=FAST
    )
    _same(chaotic, serial)
    assert chaotic.stats.pool_respawns >= 1
    assert chaotic.stats.retries >= 1
    assert chaotic.stats.chunks_redispatched >= 1


@pytest.mark.timeout_guard(180)
def test_raised_chunk_bit_identical_to_serial():
    problem = _problem(3)
    serial = appro_alg(problem, s=2)
    chaotic = appro_alg(
        problem, s=2, workers=2, chaos=ChaosSpec.raises(0, 2), policy=FAST
    )
    _same(chaotic, serial)
    assert chaotic.stats.retries >= 2
    assert chaotic.stats.pool_respawns == 0, "a raise must not kill the pool"


@pytest.mark.timeout_guard(180)
def test_poison_chunk_quarantined_matches_serial():
    problem = _problem(1)
    serial = appro_alg(problem, s=2)
    policy = FaultPolicy(
        max_attempts=2, backoff_initial_s=0.0, backoff_max_s=0.0
    )
    chaotic = appro_alg(
        problem, s=2, workers=2, chaos=ChaosSpec.poison(1), policy=policy
    )
    _same(chaotic, serial)
    assert chaotic.stats.chunks_quarantined >= 1


@pytest.mark.timeout_guard(180)
def test_random_chaos_spec_bit_identical():
    problem = _problem(8)
    serial = appro_alg(problem, s=2)
    spec = ChaosSpec.random(
        num_chunks=4, seed=5, kills=1, raises=1, delays=1, delay_s=0.01
    )
    chaotic = appro_alg(problem, s=2, workers=2, chaos=spec, policy=FAST)
    _same(chaotic, serial)
    assert chaotic.stats.retries >= 1


# -- checkpoint / resume -----------------------------------------------------


def _interrupt_partway(fraction=3):
    """A progress hook requesting a graceful drain a third of the way in."""
    def hook(done, total):
        if done >= max(1, total // fraction):
            request_interrupt()
    return hook


@pytest.mark.parametrize("seed", range(10))
def test_serial_interrupt_then_resume_is_equivalent(tmp_path, seed):
    """The acceptance property, on 10 seeded specs: kill at a boundary,
    resume, land on the bit-identical final assignment."""
    problem = _problem(seed, users=110 + 7 * seed)
    baseline = appro_alg(problem, s=2)
    path = tmp_path / "ck.json"
    try:
        with pytest.raises(SolveInterrupted) as excinfo:
            appro_alg(
                problem, s=2, progress=_interrupt_partway(),
                checkpoint=CheckpointConfig(path=path, every_subsets=8),
            )
    finally:
        clear_interrupt()
    assert excinfo.value.checkpoint_path == path
    assert excinfo.value.partial["done"] < excinfo.value.partial["total"]

    resumed = appro_alg(
        problem, s=2,
        checkpoint=CheckpointConfig(path=path, resume=True, every_subsets=8),
    )
    _same(resumed, baseline)
    assert resumed.stats.resume_subsets_skipped > 0


@pytest.mark.timeout_guard(180)
def test_parallel_interrupt_then_resume_counts_skipped_chunks(tmp_path):
    problem = _problem(3, users=150, uavs=5)
    baseline = appro_alg(problem, s=2)
    path = tmp_path / "ck.json"
    try:
        with pytest.raises(SolveInterrupted):
            appro_alg(
                problem, s=2, workers=2, progress=_interrupt_partway(),
                checkpoint=CheckpointConfig(path=path),
            )
    finally:
        clear_interrupt()

    obs.reset()
    obs.enable()
    try:
        resumed = appro_alg(
            problem, s=2, workers=2,
            checkpoint=CheckpointConfig(path=path, resume=True),
        )
        counters = obs.metrics_snapshot().get("counters", {})
    finally:
        obs.disable()
        obs.reset()
    _same(resumed, baseline)
    assert resumed.stats.resume_chunks_skipped > 0
    assert counters.get("resume.chunks_skipped", 0) > 0
    assert counters.get("checkpoint.resumes", 0) >= 1


@pytest.mark.timeout_guard(180)
def test_resume_across_different_worker_counts(tmp_path):
    """Worker count is deliberately outside the checkpoint identity: a
    snapshot resumes under any other worker count, across the serial /
    pooled boundary in both directions too (one index domain), still
    bit-identical."""
    problem = _problem(1, users=150, uavs=5)
    baseline = appro_alg(problem, s=2)
    for before, after in ((2, 3), (1, 2), (2, 1)):
        path = tmp_path / f"ck-{before}-{after}.json"
        try:
            with pytest.raises(SolveInterrupted):
                appro_alg(
                    problem, s=2, workers=before,
                    progress=_interrupt_partway(),
                    checkpoint=CheckpointConfig(path=path),
                )
        finally:
            clear_interrupt()
        resumed = appro_alg(
            problem, s=2, workers=after,
            checkpoint=CheckpointConfig(path=path, resume=True),
        )
        _same(resumed, baseline)
        assert resumed.stats.resume_subsets_skipped > 0, (before, after)


@pytest.mark.timeout_guard(180)
def test_serial_resume_of_out_of_order_pooled_checkpoint(tmp_path):
    """Two user clusters, both saturating the 90-unit fleet.  Chunk 0 is
    delayed, so the pooled run checkpoints chunk 1 (the second cluster,
    at the cap) with chunk 0 still open; the serial resume must still
    evaluate chunk 0, whose first subset wins the tie."""
    problem = make_line_instance(
        num_locations=12,
        users_per_location=[40, 40, 40, 40, 0, 40, 40, 40, 40, 0, 0, 0],
        capacities=[30, 25, 20, 15],
    )
    (served, placements, anchors), _ = reference_sweep(problem, 2)
    path = tmp_path / "ck.json"
    try:
        with pytest.raises(SolveInterrupted):
            appro_alg(
                problem, s=2, workers=2, progress=_interrupt_partway(30),
                checkpoint=CheckpointConfig(path=path),
                chaos=ChaosSpec((ChaosEvent(0, "delay", delay_s=1.5),)),
            )
    finally:
        clear_interrupt()
    snapshot = json.loads(path.read_text())
    assert snapshot["completed"][0][0] > 0
    assert snapshot["best"]["served"] == served == 90
    resumed = appro_alg(
        problem, s=2, checkpoint=CheckpointConfig(path=path, resume=True)
    )
    assert resumed.stats.resume_subsets_skipped > 0
    assert (resumed.served, resumed.anchors) == (served, anchors)
    assert resumed.deployment.placements == placements


def test_completed_checkpoint_short_circuits(tmp_path):
    problem = _problem(8)
    path = tmp_path / "ck.json"
    first = appro_alg(
        problem, s=2, checkpoint=CheckpointConfig(path=path)
    )
    assert first.stats.checkpoint_writes > 0
    again = appro_alg(
        problem, s=2, checkpoint=CheckpointConfig(path=path, resume=True)
    )
    _same(again, first)
    assert again.stats.resume_subsets_skipped > 0
    assert again.stats.subsets_evaluated == first.stats.subsets_evaluated


def test_stale_checkpoint_is_ignored_and_overwritten(tmp_path):
    path = tmp_path / "ck.json"
    problem_a = _problem(1)
    problem_b = _problem(1, users=140)       # different work identity
    appro_alg(problem_a, s=2, checkpoint=CheckpointConfig(path=path))
    result = appro_alg(
        problem_b, s=2, checkpoint=CheckpointConfig(path=path, resume=True)
    )
    baseline = appro_alg(problem_b, s=2)
    _same(result, baseline)
    assert result.stats.resume_subsets_skipped == 0
    # The file now records the new run, completed.
    payload = json.loads(path.read_text())
    assert payload["complete"] is True


# -- graceful SIGINT drain ---------------------------------------------------


@pytest.mark.timeout_guard(120)
def test_sigint_drain_emits_valid_checkpoint(tmp_path):
    """A real SIGINT under graceful_shutdown: the solver flushes a loadable
    checkpoint and surfaces the partial state instead of dying mid-write."""
    problem = _problem(3, users=150, uavs=5)
    path = tmp_path / "ck.json"
    fired = []

    def send_sigint(done, total):
        if not fired and done >= max(1, total // 3):
            fired.append(done)
            os.kill(os.getpid(), signal.SIGINT)

    with graceful_shutdown():
        with pytest.raises(SolveInterrupted) as excinfo:
            appro_alg(
                problem, s=2, progress=send_sigint,
                checkpoint=CheckpointConfig(path=path, every_subsets=8),
            )
    assert excinfo.value.checkpoint_path == path
    payload = json.loads(path.read_text())
    assert payload["kind"] == CHECKPOINT_KIND
    assert payload["format"] == CHECKPOINT_FORMAT
    assert payload["completed"], "the drain must flush completed ranges"
    assert payload["complete"] is False

    baseline = appro_alg(problem, s=2)
    resumed = appro_alg(
        problem, s=2,
        checkpoint=CheckpointConfig(path=path, resume=True, every_subsets=8),
    )
    _same(resumed, baseline)


def test_interrupt_without_checkpoint_still_drains(tmp_path):
    problem = _problem(1)
    try:
        with pytest.raises(SolveInterrupted) as excinfo:
            appro_alg(problem, s=2, progress=_interrupt_partway())
    finally:
        clear_interrupt()
    assert excinfo.value.checkpoint_path is None
    assert excinfo.value.partial["best_served"] >= 0
