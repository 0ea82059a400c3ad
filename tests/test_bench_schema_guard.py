"""Guard on the BENCH point schema.

The bench session (``benchmarks/conftest.py``) and the CLI's
``--record-bench`` both build points through ``repro.obs.bench``.  These
tests pin that and the null-normalization contract: a merged point
always carries every field explicitly, with ``None`` for metrics the run
did not measure — so adding ``peak_rss_mb`` (or any future field) cannot
silently skew old trajectories.  The figure tables merge the same way:
a session refreshes the figures it ran and keeps the others.
"""

from __future__ import annotations

from benchmarks.conftest import FigureReport, PerfTrajectory, merge_figure_text
from repro.obs.bench import POINT_FIELDS, merge_points, normalize_point


def test_bench_session_uses_the_package_schema():
    trajectory = PerfTrajectory()
    trajectory.record("fig4:K=20", "approAlg", served=10, wall_s=0.5,
                      speedup=2.0)
    (point,) = trajectory.points
    assert tuple(point)[:len(POINT_FIELDS)] == POINT_FIELDS
    assert point["speedup"] == 2.0 and point["peak_rss_mb"] is None


def test_point_fields_include_the_memory_metric():
    assert "peak_rss_mb" in POINT_FIELDS
    assert "bound_pass_ms" in POINT_FIELDS
    assert "gain_matrix_ms" in POINT_FIELDS


def test_normalize_point_nulls_missing_fields():
    point = normalize_point({"scenario": "x", "wall_s": 1.0})
    assert set(POINT_FIELDS) <= set(point)
    assert point["peak_rss_mb"] is None
    assert point["gain_matrix_ms"] is None
    assert point["wall_s"] == 1.0


def test_normalize_point_keeps_unknown_extras():
    point = normalize_point({"scenario": "x", "custom": 7})
    assert point["custom"] == 7


def test_merge_points_replaces_same_key_and_appends_new():
    old = {"scenario": "a", "algorithm": "x", "workers": 1, "scale": "s",
           "wall_s": 1.0}
    merged = merge_points([old], [dict(old, wall_s=2.0),
                                  dict(old, scenario="b")])
    assert [(p["scenario"], p["wall_s"]) for p in merged] == [
        ("a", 2.0), ("b", 1.0)]
    assert all(set(POINT_FIELDS) <= set(p) for p in merged)


def _figures(*rows) -> str:
    report = FigureReport()
    for fig, served in rows:
        report.record(fig, f"Figure {fig}", 1, "approAlg", served, 0.5)
    return report.dump()


def test_figure_merge_replaces_the_figures_that_ran_and_keeps_the_rest():
    existing = _figures(("a", 10), ("b", 20))
    merged = merge_figure_text(existing, _figures(("b", 21), ("c", 30)))
    assert merged == _figures(("a", 10), ("b", 21), ("c", 30))
    # A figure's served and runtime tables both survive a session that
    # did not run it.
    assert merge_figure_text(existing, _figures(("c", 30))) == _figures(
        ("a", 10), ("b", 20), ("c", 30))
    assert merge_figure_text("", existing) == existing
    assert merge_figure_text(existing, existing) == existing
