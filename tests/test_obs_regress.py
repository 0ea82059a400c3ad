"""Tests for the keyed compare engine (``repro.obs.compare``) as the
perf-regression detector behind ``repro perf-diff``."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.compare import (
    IMPROVED,
    KEY_FIELDS,
    MISSING,
    NEW,
    REGRESSED,
    UNCHANGED,
    classify,
    compare,
    load_points,
    perf_diff_paths,
)


def _pt(scenario="engine:n=400", algorithm="approAlg", workers=1,
        scale="bench", wall_s=1.0, **extra) -> dict:
    return {"scenario": scenario, "algorithm": algorithm,
            "workers": workers, "scale": scale, "wall_s": wall_s, **extra}


# -- classification ----------------------------------------------------------


def test_classify_threshold_edges_are_inclusive():
    # Exact float arithmetic: baseline 4.0, threshold 0.25.
    assert classify(4.0, 5.0, 0.25) == (UNCHANGED, pytest.approx(0.25))
    assert classify(4.0, 5.01, 0.25)[0] == REGRESSED
    assert classify(4.0, 3.0, 0.25) == (UNCHANGED, pytest.approx(-0.25))
    assert classify(4.0, 2.99, 0.25)[0] == IMPROVED


def test_classify_one_sided_keys():
    assert classify(None, 1.0, 0.15) == (NEW, None)
    assert classify(1.0, None, 0.15) == (MISSING, None)


def test_classify_zero_baseline_never_regresses():
    assert classify(0.0, 5.0, 0.15) == (UNCHANGED, None)


# -- compare -----------------------------------------------------------------


def test_identical_recordings_are_unchanged_with_exit_zero():
    points = [_pt(), _pt(algorithm="MCS", wall_s=0.5)]
    diff = compare(points, points)
    assert diff.counts() == {UNCHANGED: 2}
    assert diff.exit_code == 0
    assert "no regression" in diff.to_text()


def test_regression_detected_and_sorted_worst_first():
    baseline = [_pt(wall_s=1.0), _pt(algorithm="MCS", wall_s=1.0)]
    current = [_pt(wall_s=2.0), _pt(algorithm="MCS", wall_s=1.5)]
    diff = compare(baseline, current, threshold=0.15)
    assert [e.status for e in diff.entries] == [REGRESSED, REGRESSED]
    assert diff.entries[0].delta == pytest.approx(1.0)   # worst first
    assert diff.entries[1].delta == pytest.approx(0.5)
    assert diff.exit_code == 1
    assert "REGRESSION: 2 key(s)" in diff.to_text()


def test_improved_new_and_missing_never_fail_the_gate():
    baseline = [_pt(wall_s=2.0), _pt(algorithm="gone", wall_s=1.0)]
    current = [_pt(wall_s=1.0), _pt(algorithm="fresh", wall_s=1.0)]
    diff = compare(baseline, current, threshold=0.15)
    assert diff.counts() == {IMPROVED: 1, NEW: 1, MISSING: 1}
    assert diff.exit_code == 0


def test_median_window_absorbs_one_noisy_point():
    baseline = [_pt(wall_s=1.0)]
    noisy = [_pt(wall_s=1.0), _pt(wall_s=1.0), _pt(wall_s=5.0),
             _pt(wall_s=1.0), _pt(wall_s=1.1)]
    # Median of the last 3 points (5.0, 1.0, 1.1) is 1.1: unchanged.
    assert compare(baseline, noisy, window=3).exit_code == 0
    # Window 1 keeps only the last point (1.1): still fine...
    assert compare(baseline, noisy, window=1).exit_code == 0
    # ...but a window-1 diff against the spike itself regresses.
    assert compare(baseline, noisy[:3], window=1).exit_code == 1


def test_points_without_wall_s_are_ignored():
    current = [dict(_pt(), wall_s=None)]
    diff = compare([_pt(wall_s=1.0)], current)
    assert diff.counts() == {MISSING: 1}


def test_perf_diff_validates_inputs():
    with pytest.raises(ValueError, match="threshold"):
        compare([], [], threshold=-0.1)
    with pytest.raises(ValueError, match="window"):
        compare([], [], window=0)


def test_to_dict_shape():
    diff = compare([_pt(wall_s=1.0)], [_pt(wall_s=3.0)])
    data = diff.to_dict()
    assert data["regression"] is True
    assert data["counts"] == {REGRESSED: 1}
    (entry,) = data["entries"]
    assert set(entry["key"]) == set(KEY_FIELDS)
    assert entry["status"] == REGRESSED
    assert entry["delta"] == pytest.approx(2.0)
    json.dumps(data)   # must be JSON-serializable as-is


# -- loading -----------------------------------------------------------------


def test_load_points_trajectory_and_bare_list(tmp_path):
    points = [_pt()]
    wrapped = tmp_path / "traj.json"
    wrapped.write_text(json.dumps({"points": points}))
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(points))
    assert load_points(wrapped) == points
    assert load_points(bare) == points


def test_load_points_reads_a_trace_file(tmp_path):
    from repro.scenario import get_preset

    record = obs.build_record(
        "run", wall_s=1.5, exit_code=0,
        spans=[{"name": "pipeline.solve", "duration_ns": 2_000_000}],
        metrics={"counters": {}, "gauges": {}, "histograms": {}},
        spec=get_preset("demo-small"), config={"workers": 2},
    )
    path = obs.write_record(tmp_path / "t.jsonl", record)
    (point,) = load_points(path)
    assert point == {
        "scenario": "run:demo-small",
        "algorithm": "approAlg",
        "workers": 1,            # the spec's, not the CLI config's
        "scale": "small",
        "wall_s": 1.5,
        "kernels": {"pipeline.solve": 2.0},
    }


def test_load_points_rejects_garbage(tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("definitely {{{ not json\n")
    with pytest.raises(ValueError, match="neither"):
        load_points(path)


def test_perf_diff_paths_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        perf_diff_paths(tmp_path / "nope.json", tmp_path / "nope2.json")


def test_perf_diff_paths_end_to_end(tmp_path):
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps({"points": [_pt(wall_s=1.0)]}))
    current.write_text(json.dumps({"points": [_pt(wall_s=1.05)]}))
    diff = perf_diff_paths(baseline, current, threshold=0.15)
    assert diff.exit_code == 0
    current.write_text(json.dumps({"points": [_pt(wall_s=2.0)]}))
    assert perf_diff_paths(baseline, current, threshold=0.15).exit_code == 1
