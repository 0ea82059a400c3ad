"""Checkpoint mechanics: range arithmetic, identity keys, resume rules."""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointConfig,
    CheckpointError,
    SolveCheckpoint,
    covered_units,
    merge_ranges,
    missing_ranges,
    solve_run_key,
    solve_work_key,
)

# -- range arithmetic --------------------------------------------------------


def test_merge_ranges_sorts_coalesces_and_drops_empty():
    assert merge_ranges([(5, 9), (0, 3), (3, 5), (9, 9), (20, 25)]) == [
        (0, 9), (20, 25)
    ]
    assert merge_ranges([]) == []
    assert merge_ranges([(4, 2)]) == []


def test_missing_ranges_is_the_exact_complement():
    completed = [(2, 4), (6, 8)]
    assert missing_ranges(10, completed) == [(0, 2), (4, 6), (8, 10)]
    assert missing_ranges(10, []) == [(0, 10)]
    assert missing_ranges(10, [(0, 10)]) == []
    # Ranges beyond total are clamped away.
    assert missing_ranges(5, [(0, 3), (7, 9)]) == [(3, 5)]


@pytest.mark.parametrize("total", [1, 7, 64, 100])
def test_completed_plus_missing_cover_everything(total):
    completed = [(1, 3), (10, 12), (30, 80), (2, 5)]
    units = covered_units([(lo, min(hi, total)) for lo, hi in completed
                           if lo < total])
    gaps = missing_ranges(total, completed)
    assert units + sum(hi - lo for lo, hi in gaps) == total


def test_config_validation():
    with pytest.raises(ValueError, match="every_subsets"):
        CheckpointConfig(path="x.json", every_subsets=0)


# -- identity keys -----------------------------------------------------------


class _FakeUAV:
    def __init__(self, capacity):
        self.capacity = capacity


class _FakeProblem:
    num_users = 100
    num_locations = 9
    num_uavs = 3
    fleet = [_FakeUAV(30), _FakeUAV(40), _FakeUAV(50)]


def _run_key(**overrides):
    kw = dict(
        problem=_FakeProblem(), pool=(0, 1, 2), eval_kw={"gain_mode": "fast"},
        external_key=None,
    )
    kw.update(overrides)
    return solve_run_key(**kw)


def test_run_key_sensitive_to_every_identity_input():
    base = _run_key()
    assert base == _run_key(), "deterministic"
    assert base != _run_key(pool=(0, 1, 3))
    assert base != _run_key(eval_kw={"gain_mode": "exact"})
    assert base != _run_key(external_key="scenario-x")


def test_work_key_separates_levels_and_totals():
    run = _run_key()
    assert solve_work_key(run, 2, 84) == solve_work_key(run, 2, 84)
    assert solve_work_key(run, 2, 84) != solve_work_key(run, 3, 84)
    assert solve_work_key(run, 2, 84) != solve_work_key(run, 2, 85)
    assert solve_work_key(run, 2, 84) != solve_work_key("other", 2, 84)


# -- SolveCheckpoint lifecycle -----------------------------------------------


def _fresh(tmp_path, resume=False, run_key="rk", **config_kw):
    config = CheckpointConfig(
        path=tmp_path / "ck.json", resume=resume, **config_kw
    )
    return SolveCheckpoint(config, run_key)


def test_round_trip_restores_ranges_best_and_counts(tmp_path):
    ck = _fresh(tmp_path)
    ck.enter_level(2, 50)
    ck.mark_range(0, 10)
    ck.mark_range(20, 30)
    ck.set_best((17, {0: 3, 1: 5}, (3, 5)))
    ck.record_counts(pruned=4, evaluated=14, infeasible=2, bound_skipped=0)
    ck.flush()

    res = _fresh(tmp_path, resume=True)
    res.enter_level(2, 50)
    assert res.resumed
    assert res.completed == [(0, 10), (20, 30)]
    assert res.best == (17, {0: 3, 1: 5}, (3, 5))
    assert res.counts == {
        "pruned": 4, "evaluated": 14, "infeasible": 2, "bound_skipped": 0
    }
    assert res.resumed_chunks == 2
    assert res.resumed_units == 20
    assert missing_ranges(res.total, res.completed) == [(10, 20), (30, 50)]


def test_run_key_mismatch_is_ignored_not_fatal(tmp_path):
    ck = _fresh(tmp_path, run_key="old-work")
    ck.enter_level(2, 10)
    ck.mark_range(0, 10)
    ck.flush()

    res = _fresh(tmp_path, resume=True, run_key="new-work")
    assert res.mismatched
    res.enter_level(2, 10)
    assert not res.resumed, "a stale checkpoint must never restore ranges"
    assert res.completed == []


def test_work_key_mismatch_starts_level_fresh(tmp_path):
    ck = _fresh(tmp_path)
    ck.enter_level(2, 10)
    ck.mark_range(0, 5)
    ck.flush()

    res = _fresh(tmp_path, resume=True)
    res.enter_level(3, 10)   # same run, different level
    assert not res.resumed
    assert res.completed == []


def test_exhausted_levels_round_trip(tmp_path):
    ck = _fresh(tmp_path)
    ck.enter_level(3, 10)
    ck.mark_exhausted(3)

    res = _fresh(tmp_path, resume=True)
    assert res.is_exhausted(3)
    assert not res.is_exhausted(2)


def test_foreign_file_raises(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(CheckpointError, match="not a solve checkpoint"):
        SolveCheckpoint(CheckpointConfig(path=path, resume=True), "rk")


def test_future_format_raises(tmp_path):
    path = tmp_path / "ck.json"
    payload = {"kind": "solve-checkpoint", "format": CHECKPOINT_FORMAT + 1}
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="unsupported checkpoint format"):
        SolveCheckpoint(CheckpointConfig(path=path, resume=True), "rk")


def test_corrupt_file_raises(tmp_path):
    path = tmp_path / "ck.json"
    path.write_text("{not json")
    with pytest.raises(CheckpointError, match="cannot read"):
        SolveCheckpoint(CheckpointConfig(path=path, resume=True), "rk")


def test_missing_file_starts_fresh(tmp_path):
    res = _fresh(tmp_path, resume=True)
    assert not res.mismatched
    res.enter_level(2, 10)
    assert not res.resumed


def test_flush_cadence_chunks_vs_subsets(tmp_path):
    # Each pool chunk flushes; serial per-subset marks (chunk=False) only
    # flush at the every_subsets cadence.
    ck = _fresh(tmp_path, every_subsets=10)
    ck.enter_level(2, 100)
    for i in range(5):
        ck.mark_range(i, i + 1, chunk=False)
        ck.maybe_flush()
    assert ck.writes == 0, "5 subsets < every_subsets=10: no flush yet"
    for i in range(5, 10):
        ck.mark_range(i, i + 1, chunk=False)
        ck.maybe_flush()
    assert ck.writes == 1
    ck.mark_range(10, 20, chunk=True)
    ck.maybe_flush()
    assert ck.writes == 2, "a pool chunk flushes"


def test_empty_range_is_a_no_op(tmp_path):
    ck = _fresh(tmp_path)
    ck.enter_level(2, 10)
    ck.mark_range(5, 5)
    assert ck.completed == []
