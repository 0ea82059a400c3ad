"""Tests for the run archive (``repro.obs.record``) and the
kernel-attribution surface of the compare engine (``repro.obs.compare``).

The archive's contract: every recorded run loads back identical, the
index survives crashes (atomic writes), and ``compare_runs`` /
``perf-diff --attribute`` answer *which kernel* regressed — the
acceptance fixture below inflates ``gain_matrix_ms`` on an otherwise
steady trajectory and the attribution must name it.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.obs.compare import (
    IMPROVED,
    KERNEL_FIELDS,
    MISSING,
    NEW,
    REGRESSED,
    compare,
    compare_runs,
)
from repro.obs.record import RunArchive, RunRecord, span_totals
from repro.obs.sampler import Sampler, SamplerConfig


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _record(wall_s: float = 1.0, command: str = "run", **fields) -> RunRecord:
    return RunRecord(command=command, seed=7, algorithm="approAlg",
                     wall_s=wall_s, created_unix=1700000000.0, **fields)


def _spans(solve_ms: float, gain_ms: float) -> list:
    return [
        {"name": "pipeline.solve", "duration_ns": int(solve_ms * 1e6),
         "index": 0},
        {"name": "approx.gain_matrix", "duration_ns": int(gain_ms * 1e6),
         "index": 1},
    ]


# -- span aggregation --------------------------------------------------------


def test_span_totals_aggregates_by_name():
    spans = [
        {"name": "a", "duration_ns": 2_000_000},
        {"name": "a", "duration_ns": 5_000_000},
        {"name": "b", "duration_ns": 1_000_000},
    ]
    totals = span_totals(spans)
    assert totals["a"] == {"count": 2, "total_ms": 7.0, "max_ms": 5.0}
    assert totals["b"]["count"] == 1
    assert span_totals(None) == {}


# -- record / load round-trip ------------------------------------------------


def test_record_and_load_roundtrip(tmp_path):
    archive = RunArchive(tmp_path / "runs")
    key = ["small", 300, 6]
    record = _record(
        metrics={"counters": {"x": 1}, "gauges": {}, "histograms": {}},
        spans=_spans(20.0, 10.0),
        timeline=[{"t_s": 0.0, "counters": {"approx.subsets_done": 3},
                   "workers": {}, "gauges": {}, "rss_mb": 40.0}],
        scenario_key=key,
        served=275,
    )
    run_id = archive.record_run(record)
    assert run_id == "run-0001"
    run = archive.load(run_id)
    assert run == record
    assert run.scenario_key == key
    assert run.served == 275
    assert run.command == "run"
    assert run.kernels["approx.gain_matrix"]["total_ms"] == 10.0
    assert run.metrics["counters"] == {"x": 1}
    assert len(run.timeline) == 1 and run.timeline[0]["rss_mb"] == 40.0
    assert run.profile is None
    assert archive.load(run.path) == archive.load(run.path.parent) == run

    (entry,) = archive.list_runs()
    assert entry["id"] == run_id
    assert entry["has_timeline"] and not entry["has_profile"]
    assert entry["served"] == 275


def test_ids_are_sequential_and_unknown_id_raises(tmp_path):
    archive = RunArchive(tmp_path / "runs")
    assert archive.record_run(_record()) == "run-0001"
    assert archive.record_run(_record()) == "run-0002"
    with pytest.raises(KeyError, match="run-0001, run-0002"):
        archive.load("run-9999")


def test_archive_stores_profiler_artifacts(tmp_path):
    from repro.obs.profile import ProfileConfig, SamplingProfiler

    profiler = SamplingProfiler(ProfileConfig(memory=False))
    profiler.sample_once()
    archive = RunArchive(tmp_path / "runs")
    run_id = archive.record_run(
        _record(command="profile", profile=profiler.to_dict()), profiler)
    run = archive.load(run_id)
    assert run.profile["samples"] == profiler.samples
    speedscope = run.path.parent / "profile.speedscope.json"
    assert json.loads(speedscope.read_text())["profiles"]


def test_corrupt_index_degrades_to_empty(tmp_path):
    root = tmp_path / "runs"
    root.mkdir()
    (root / "index.json").write_text("not {{{ json")
    archive = RunArchive(root)
    assert archive.list_runs() == []
    assert archive.record_run(_record()) == "run-0001"


def test_archived_timeline_keeps_dropped_and_interval(tmp_path):
    """A ring that overflowed says so after the archive round trip."""
    obs.enable()
    sampler = Sampler(SamplerConfig(interval_s=0.25, capacity=2))
    for _ in range(5):
        obs.counter_inc("approx.subsets_done")
        sampler.snapshot()
    record = obs.build_record("run", wall_s=0.1, exit_code=0, spans=[],
                              metrics=obs.metrics_snapshot(), sampler=sampler)
    archive = RunArchive(tmp_path / "runs")
    run = archive.load(archive.record_run(record))
    assert run.dropped == 3 and run.interval_s == 0.25
    assert len(run.timeline) == 2
    assert run.timeline[-1]["counters"]["approx.subsets_done"] == 5
    assert "3 dropped" in obs.summarize(run)


def test_old_schema_is_refused_by_version(tmp_path):
    """Schema-1 files (trace JSONL, timeline JSONL, run.json dirs) raise
    a ValueError that names the version instead of being half-read."""
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"type": "manifest", "schema": 1, "command": "run"}\n'
                     '{"type": "metrics", "counters": {}}\n')
    timeline = tmp_path / "tl.jsonl"
    timeline.write_text('{"type": "timeline-meta", "schema": 1}\n')
    old_dir = tmp_path / "runs" / "run-0001"
    old_dir.mkdir(parents=True)
    (old_dir / "run.json").write_text(json.dumps({"schema": 1}))
    for path in (trace, timeline, old_dir):
        with pytest.raises(ValueError, match="schema 1"):
            obs.read_record(path)
    with pytest.raises(ValueError, match="schema 1"):
        RunArchive(tmp_path / "runs").load("run-0001")


# -- comparison --------------------------------------------------------------


def test_compare_runs_names_dominant_kernel(tmp_path):
    archive = RunArchive(tmp_path / "runs")
    base = archive.load(archive.record_run(
        _record(wall_s=1.0, spans=_spans(solve_ms=20.0, gain_ms=10.0))))
    cur = archive.load(archive.record_run(
        _record(wall_s=1.5, spans=_spans(solve_ms=21.0, gain_ms=30.0))))

    comparison = compare_runs(base, cur, threshold=0.15)
    (entry,) = comparison.entries
    assert entry.status == REGRESSED
    assert comparison.exit_code == 1
    dominant = comparison.dominant_regression
    assert dominant.name == "approx.gain_matrix"
    assert dominant.delta == pytest.approx(2.0)
    text = comparison.to_text()
    assert "REGRESSION: kernel 'approx.gain_matrix'" in text
    data = comparison.to_dict()
    assert data["dominant_regression"] == "approx.gain_matrix"


def test_compare_runs_clean_and_asymmetric_kernels(tmp_path):
    archive = RunArchive(tmp_path / "runs")
    base = archive.load(archive.record_run(_record(
        wall_s=1.0, spans=[{"name": "only.base", "duration_ns": 1_000_000}])))
    cur = archive.load(archive.record_run(_record(
        wall_s=1.0, spans=[{"name": "only.cur", "duration_ns": 1_000_000}])))
    comparison = compare_runs(base, cur)
    assert comparison.exit_code == 0
    assert comparison.dominant_regression is None
    (entry,) = comparison.entries
    statuses = {k.name: k.status for k in entry.kernels}
    assert statuses == {"only.base": MISSING, "only.cur": NEW}
    assert "no regression" in comparison.to_text()


# -- perf-diff attribution (the acceptance fixture) --------------------------


def _point(**overrides) -> dict:
    point = {"scenario": "paper-headline", "algorithm": "approAlg",
             "served": 2500, "wall_s": 1.0, "workers": 1, "scale": "paper",
             "context_build_s": 0.20, "bound_pass_ms": 5.0,
             "gain_matrix_ms": 40.0}
    point.update(overrides)
    return point


def test_perf_diff_attribution_names_inflated_gain_matrix():
    """Seeded regression: wall +40% driven by gain_matrix_ms 40→90 while
    the other kernels hold — attribution must blame the gain matrix."""
    baseline = [_point()]
    current = [_point(wall_s=1.4, context_build_s=0.21, bound_pass_ms=5.1,
                      gain_matrix_ms=90.0)]
    diff = compare(baseline, current, threshold=0.15)
    assert diff.exit_code == 1
    (delta,) = diff.entries
    assert delta.status == REGRESSED
    worst = delta.worst_kernel()
    assert worst.name == "gain_matrix_ms"
    assert worst.delta == pytest.approx(1.25)
    (attr,) = diff.attribution()
    assert attr["kernel"] == "gain_matrix_ms"
    assert attr["current"] == 90.0
    assert "kernel 'gain_matrix_ms' 40 -> 90" in diff.attribution_text()
    # The default table now carries the kernel columns (satellite: the
    # recorded bound/gain timings surface without extra flags).
    text = diff.to_text()
    assert "bound ms" in text and "gain ms" in text and "90!" in text


def test_perf_diff_attribution_empty_when_kernels_hold():
    baseline = [_point()]
    current = [_point(wall_s=1.4)]  # slower, but no kernel moved
    diff = compare(baseline, current, threshold=0.15)
    assert diff.exit_code == 1
    assert diff.attribution() == []
    assert "no kernel-level timings moved" in diff.attribution_text()


def test_kernel_fields_cover_the_recorded_timings():
    assert set(KERNEL_FIELDS) == {
        "context_build_s", "bound_pass_ms", "gain_matrix_ms",
    }


def test_improved_kernel_is_not_attributed():
    baseline = [_point()]
    current = [_point(gain_matrix_ms=10.0)]
    diff = compare(baseline, current, threshold=0.15)
    (delta,) = diff.entries
    kernels = {k.name: k.status for k in delta.kernels}
    assert kernels["gain_matrix_ms"] == IMPROVED
    assert delta.worst_kernel() is None


# -- CLI surface -------------------------------------------------------------


class TestRunsCli:
    def _seed_archive(self, root, gain_ms: float, wall_s: float) -> str:
        return RunArchive(root).record_run(_record(
            wall_s=wall_s, spans=_spans(20.0, gain_ms),
            scenario_key=["small", 300, 6], served=275))

    def test_list_empty_and_populated(self, capsys, tmp_path):
        root = tmp_path / "runs"
        assert main(["runs", "list", "--root", str(root)]) == 0
        assert "no archived runs" in capsys.readouterr().out
        self._seed_archive(root, gain_ms=10.0, wall_s=1.0)
        assert main(["runs", "list", "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "run-0001" in out and "approAlg" in out

    def test_show_renders_kernels(self, capsys, tmp_path):
        root = tmp_path / "runs"
        run_id = self._seed_archive(root, gain_ms=10.0, wall_s=1.0)
        assert main(["runs", "show", run_id, "--root", str(root)]) == 0
        out = capsys.readouterr().out
        assert "approx.gain_matrix" in out and "kernel timings" in out

    def test_compare_exit_codes_and_verdict(self, capsys, tmp_path):
        root = tmp_path / "runs"
        a = self._seed_archive(root, gain_ms=10.0, wall_s=1.0)
        b = self._seed_archive(root, gain_ms=30.0, wall_s=1.5)
        assert main(["runs", "compare", a, a, "--root", str(root)]) == 0
        capsys.readouterr()
        assert main(["runs", "compare", a, b, "--root", str(root)]) == 1
        assert "kernel 'approx.gain_matrix'" in capsys.readouterr().out

    def test_bad_ids_and_arity_exit_two(self, capsys, tmp_path):
        root = str(tmp_path / "runs")
        assert main(["runs", "show", "run-0042", "--root", root]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["runs", "show", "--root", root]) == 2
        capsys.readouterr()
        assert main(["runs", "compare", "run-0001", "--root", root]) == 2
        assert "exactly two" in capsys.readouterr().err

    def test_perf_diff_attribute_flag(self, capsys, tmp_path):
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps({"points": [_point()]}))
        current.write_text(json.dumps(
            {"points": [_point(wall_s=1.4, gain_matrix_ms=90.0)]}))
        assert main(["perf-diff", str(baseline), str(current),
                     "--attribute"]) == 1
        assert "kernel 'gain_matrix_ms'" in capsys.readouterr().out
        assert main(["perf-diff", str(baseline), str(current),
                     "--attribute", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["attribution"][0]["kernel"] == "gain_matrix_ms"
