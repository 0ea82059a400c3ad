"""Tests for the BatchRunner (grouping, reuse, determinism, pooling)."""

import os

import pytest

from repro import obs
from repro.scenario import batch as batch_module
from repro.scenario.batch import BatchRunner
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec, SpecError

BASE = ScenarioSpec(
    name="batch-test", scale="small", num_users=200, num_uavs=5,
    seed=17, algorithm="approAlg", algorithm_params={"s": 2},
)

SHOOTOUT = [
    BASE,
    BASE.with_overrides(algorithm="MCS", algorithm_params={}),
    BASE.with_overrides(algorithm="GreedyAssign", algorithm_params={}),
    BASE.with_overrides(seed=18, algorithm="MCS", algorithm_params={}),
    BASE.with_overrides(seed=18, algorithm="maxThroughput",
                        algorithm_params={}),
]


class TestGrouping:
    def test_shared_scenarios_built_once(self):
        result = BatchRunner().run(SHOOTOUT)
        assert len(result.items) == 5
        assert result.groups == 2                  # seeds 17 and 18
        # Only groups containing a context-aware algorithm build a context:
        # seed 17 has approAlg, seed 18 has none.
        assert result.context_builds == 1

    def test_items_keep_submission_order(self):
        result = BatchRunner().run(SHOOTOUT)
        assert [item.index for item in result.items] == [0, 1, 2, 3, 4]
        assert [item.spec.algorithm for item in result.items] == [
            "approAlg", "MCS", "GreedyAssign", "MCS", "maxThroughput"
        ]

    def test_rejects_non_specs(self):
        with pytest.raises(TypeError, match="ScenarioSpec"):
            BatchRunner().run([BASE, "not-a-spec"])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            BatchRunner(workers=0)


class TestDeterminism:
    def test_batch_equals_sequential_pipeline_runs(self):
        """Batch results are identical to running every spec alone."""
        batch = BatchRunner().run(SHOOTOUT)
        pipeline = SolvePipeline()
        for item in batch.items:
            alone = pipeline.run(item.spec)
            assert item.record.served == alone.record.served
            assert item.deployment.placements == alone.deployment.placements
            assert item.deployment.assignment == alone.deployment.assignment

    def test_batch_is_repeatable(self):
        first = BatchRunner().run(SHOOTOUT)
        second = BatchRunner().run(SHOOTOUT)
        assert [i.served for i in first.items] == [
            i.served for i in second.items
        ]

    @pytest.mark.timeout_guard(120)
    def test_pooled_equals_sequential(self):
        sequential = BatchRunner(workers=1).run(SHOOTOUT)
        pooled = BatchRunner(workers=2).run(SHOOTOUT)
        for a, b in zip(sequential.items, pooled.items):
            assert a.index == b.index
            assert a.served == b.served
            assert a.deployment.placements == b.deployment.placements
            assert a.deployment.assignment == b.deployment.assignment


_RUN_GROUP = batch_module._run_group_json


def _group_killed_once(chunk_id, payload, attempt=0):
    """Pool entry point whose worker dies on group 1's first attempt."""
    if chunk_id == 1 and attempt == 0:
        os._exit(23)
    return _RUN_GROUP(chunk_id, payload, attempt)


def _traced_pooled_run(specs):
    """``(result or raised exception, counters)`` of a workers=2 batch."""
    obs.reset()
    obs.enable()
    try:
        try:
            outcome = BatchRunner(workers=2).run(specs)
        except Exception as exc:
            outcome = exc
        return outcome, obs.metrics_snapshot().get("counters", {})
    finally:
        obs.disable()
        obs.reset()


class TestPooledRecovery:
    @pytest.mark.timeout_guard(120)
    def test_killed_group_worker_is_redispatched(self, monkeypatch):
        monkeypatch.setattr(batch_module, "_run_group_json",
                            _group_killed_once)
        sequential = BatchRunner(workers=1).run(SHOOTOUT)
        pooled, counters = _traced_pooled_run(SHOOTOUT)
        assert counters.get("dispatch.pool_respawns", 0) >= 1
        assert counters.get("dispatch.chunks_redispatched", 0) >= 1
        for a, b in zip(sequential.items, pooled.items):
            assert (a.index, a.served) == (b.index, b.served)
            assert a.deployment.placements == b.deployment.placements
            assert a.deployment.assignment == b.deployment.assignment

    @pytest.mark.timeout_guard(120)
    def test_pooled_strict_raises_the_spec_error(self):
        """The spec's own exception, raised on its first failure: a
        deterministic spec error is not retried like a lost worker."""
        bad = BASE.with_overrides(algorithm_params={"bogus": True})
        raised, counters = _traced_pooled_run([bad, SHOOTOUT[3]])
        assert isinstance(raised, SpecError)
        assert "bogus" in str(raised)
        assert counters.get("dispatch.retries", 0) == 0
        assert counters.get("dispatch.chunks_quarantined", 0) == 0


class TestFailureHandling:
    def test_strict_false_captures_per_spec_failure(self):
        # A parameter the solver does not take is a SpecError; strict=False
        # keeps the batch alive and records the failure on that spec alone.
        bad = BASE.with_overrides(algorithm_params={"bogus": True})
        runner = BatchRunner(pipeline=SolvePipeline(strict=False))
        result = runner.run([bad, BASE])
        statuses = [item.record.status for item in result.items]
        assert statuses[0] == "error"
        assert statuses[1] == "ok"

    def test_strict_true_propagates(self):
        bad = BASE.with_overrides(algorithm_params={"bogus": True})
        with pytest.raises(SpecError, match="bogus"):
            BatchRunner().run([bad])


class TestConvenience:
    def test_to_text_summarises(self):
        text = BatchRunner().run(SHOOTOUT[:2]).to_text()
        assert "2 specs" in text
        assert "approAlg" in text and "MCS" in text


class TestEmptyBatches:
    """Regression: an empty spec list (or an all-resumed batch) used to
    reach ``ProcessPoolExecutor(max_workers=0)`` when ``workers > 1`` and
    crash; empty batches must never spin up a pool."""

    @pytest.mark.timeout_guard(30)
    def test_empty_specs_sequential(self):
        result = BatchRunner().run([])
        assert result.items == ()
        assert result.groups == 0
        assert result.context_builds == 0
        assert result.specs_skipped == 0

    @pytest.mark.timeout_guard(30)
    def test_empty_specs_with_workers(self):
        result = BatchRunner(workers=4).run([])
        assert result.items == ()
        assert result.groups == 0

    @pytest.mark.timeout_guard(120)
    def test_all_specs_resumed_skips_pool(self, tmp_path):
        specs = SHOOTOUT[:2]
        runner = BatchRunner(workers=4, checkpoint_dir=tmp_path)
        first = runner.run(specs)
        assert first.specs_skipped == 0
        # Second run with resume: everything rehydrates from the ledger,
        # zero groups remain -- must not build a zero-worker pool.
        resumed = BatchRunner(
            workers=4, checkpoint_dir=tmp_path, resume=True
        ).run(specs)
        assert resumed.specs_skipped == 2
        assert resumed.groups == 0
        assert [i.served for i in resumed.items] == [
            i.served for i in first.items
        ]
        assert all(i.resumed for i in resumed.items)

    @pytest.mark.timeout_guard(30)
    def test_run_pooled_direct_empty_groups(self):
        assert BatchRunner(workers=4)._run_groups([], None, 0, 0.0) == []
