"""Resume at the orchestration layers: batch ledger (also under the figure
sweeps), pipeline checkpoint identity."""

from __future__ import annotations

import pytest

from repro import obs
from repro.scenario import BatchRunner, ScenarioSpec, SolvePipeline
from repro.scenario.pipeline import solve_stage
from repro.sim.experiments import fig5_sweep
from repro.util.interrupt import (
    SolveInterrupted,
    clear_interrupt,
    request_interrupt,
)


def _specs(n=3):
    return [
        ScenarioSpec(
            name=f"spec{i}", scale="small", num_users=60 + 10 * i,
            num_uavs=3, seed=i, algorithm="approAlg",
            algorithm_params={"s": 2, "gain_mode": "fast"},
        )
        for i in range(n)
    ]


@pytest.fixture
def counters():
    obs.reset()
    obs.enable()
    yield lambda: obs.metrics_snapshot().get("counters", {})
    obs.disable()
    obs.reset()


def test_batch_resume_skips_recorded_specs(tmp_path, counters):
    specs = _specs()
    first = BatchRunner(checkpoint_dir=tmp_path).run(specs)
    assert (tmp_path / "batch-ledger.json").exists()

    second = BatchRunner(checkpoint_dir=tmp_path, resume=True).run(specs)
    assert second.specs_skipped == len(specs)
    assert all(item.resumed for item in second.items)
    assert [i.served for i in second.items] == [i.served for i in first.items]
    assert [i.record.status for i in second.items] == ["ok"] * len(specs)
    assert counters().get("resume.specs_skipped", 0) == len(specs)


def test_batch_different_spec_list_never_cross_resumes(tmp_path):
    BatchRunner(checkpoint_dir=tmp_path).run(_specs(2))
    result = BatchRunner(checkpoint_dir=tmp_path, resume=True).run(_specs(3))
    assert result.specs_skipped == 0, (
        "the ledger is fingerprinted on the full spec list; a different "
        "batch must start fresh"
    )


def test_batch_without_resume_recomputes(tmp_path):
    specs = _specs(2)
    BatchRunner(checkpoint_dir=tmp_path).run(specs)
    again = BatchRunner(checkpoint_dir=tmp_path).run(specs)
    assert again.specs_skipped == 0


def test_sweep_resume_skips_points(tmp_path, counters):
    kwargs = dict(ns=(40, 60), num_uavs=4, scale="small",
                  checkpoint_dir=tmp_path)
    first = fig5_sweep(**kwargs)
    second = fig5_sweep(**kwargs, resume=True)
    key = lambda result: [            # noqa: E731 - tiny local projection
        (v, rec.algorithm, rec.served) for v, rec in result.records
    ]
    assert key(second) == key(first)
    assert counters().get("resume.specs_skipped", 0) == len(first.records)


@pytest.mark.timeout_guard(120)
def test_batch_resumes_under_a_different_worker_count(tmp_path):
    """Results do not depend on ``workers``, so the ledger of a
    ``workers=2`` batch resumes in full at ``workers=1``."""
    specs = [spec.with_overrides(workers=2) for spec in _specs(2)]
    first = BatchRunner(checkpoint_dir=tmp_path).run(specs)
    serial = [spec.with_overrides(workers=1) for spec in specs]
    second = BatchRunner(checkpoint_dir=tmp_path, resume=True).run(serial)
    assert second.specs_skipped == len(specs)
    assert [i.served for i in second.items] == [i.served for i in first.items]


# One scenario group: four algorithms on the same spec scenario.
_GROUP = [
    _specs(1)[0].with_overrides(name=f"group{i}", algorithm=name,
                                algorithm_params=params)
    for i, (name, params) in enumerate([
        ("approAlg", {"s": 2, "gain_mode": "fast"}), ("MCS", {}),
        ("GreedyAssign", {}), ("maxThroughput", {}),
    ])
]


def _interrupting_pipeline(after: int, how: str) -> SolvePipeline:
    """A pipeline interrupted once ``after`` solves have finished: the
    next solve either raises the drain itself (as approAlg does
    mid-solve) or the last finished one requests it (as SIGINT does)."""
    finished = []

    def solve(state):
        if how == "raise" and len(finished) == after:
            raise SolveInterrupted("drained mid-group")
        state = solve_stage(state)
        finished.append(state.entry.name)
        if how == "request" and len(finished) == after:
            request_interrupt()
        return state

    return SolvePipeline().with_stage("solve", solve)


@pytest.mark.parametrize("how", ["raise", "request"])
def test_batch_interrupted_mid_group_resumes_finished_specs(tmp_path, how):
    """Each finished spec is journaled at once, not when its group ends:
    an interrupt inside a group loses no finished run."""
    runner = BatchRunner(pipeline=_interrupting_pipeline(2, how),
                         checkpoint_dir=tmp_path)
    try:
        with pytest.raises(SolveInterrupted):
            runner.run(_GROUP)
    finally:
        clear_interrupt()
    resumed = BatchRunner(checkpoint_dir=tmp_path, resume=True).run(_GROUP)
    assert resumed.specs_skipped == 2
    assert [i.resumed for i in resumed.items] == [True, True, False, False]
    alone = BatchRunner().run(_GROUP)
    assert [i.served for i in resumed.items] == [i.served for i in alone.items]


def test_pipeline_spec_checkpoint_identity(tmp_path):
    pipeline = SolvePipeline(checkpoint_dir=tmp_path)
    a, b, c = _specs(3)[0], _specs(3)[0], _specs(3)[1]
    config_a = pipeline.spec_checkpoint(a)
    assert config_a is not None
    assert pipeline.spec_checkpoint(b).key == config_a.key
    assert pipeline.spec_checkpoint(c).key != config_a.key
    # Non-checkpointable algorithms get no config.
    mcs = ScenarioSpec(
        name="mcs", scale="small", num_users=60, num_uavs=3, seed=0,
        algorithm="MCS",
    )
    assert pipeline.spec_checkpoint(mcs) is None
    # No checkpoint_dir, no config.
    assert SolvePipeline().spec_checkpoint(a) is None


def test_pipeline_checkpoint_stays_out_of_the_record(tmp_path):
    pipeline = SolvePipeline(checkpoint_dir=tmp_path)
    state = pipeline.run(_specs(1)[0])
    assert state.ok
    assert "checkpoint" not in state.record.params
