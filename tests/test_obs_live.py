"""Tests for the registry sampler (``repro.obs.sampler``).

The sampler is driven two ways: thread-free via :meth:`Sampler.sample`
and :meth:`Sampler.snapshot` with an injected clock and a private
registry (ring buffer, drop accounting, rate/ETA/stall math), and
end-to-end with the real daemon thread against an in-memory stream
(lifecycle, the ``--live`` progress line, stall warnings).
"""

from __future__ import annotations

import io
import itertools
import threading
import time

import pytest

from repro import obs
from repro.obs import report
from repro.obs.sampler import (
    DEFAULT_ACTIVITY_COUNTERS,
    THREAD_NAME,
    LiveSample,
    Sampler,
    SamplerConfig,
    _fmt_eta,
)
from repro.util.charts import sparkline


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class _Clock:
    """Deterministic monotonic clock for thread-free sampling."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class _Tty(io.StringIO):
    def isatty(self) -> bool:
        return True


def _fake_clock(step: float = 1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def _reporter(registry, clock=None, **cfg):
    return Sampler(
        SamplerConfig(**cfg),
        registry=registry,
        clock=clock if clock is not None else _Clock(),
    )


# -- config validation -------------------------------------------------------


def test_config_rejects_nonpositive_interval():
    with pytest.raises(ValueError, match="interval"):
        SamplerConfig(interval_s=0)


def test_config_rejects_zero_stall_intervals():
    with pytest.raises(ValueError, match="stall_intervals"):
        SamplerConfig(stall_intervals=0)


def test_config_rejects_zero_capacity():
    with pytest.raises(ValueError, match="capacity"):
        SamplerConfig(capacity=0)


def test_config_has_fewer_knobs_than_the_two_it_replaced():
    # The old reporter and recorder configs had six settable fields.
    assert len(SamplerConfig.__dataclass_fields__) < 6


# -- sampling math (thread-free) ---------------------------------------------


def test_sample_progress_rate_and_eta():
    registry = obs.MetricsRegistry()
    clock = _Clock()
    reporter = _reporter(registry, clock)
    registry.inc("approx.subsets_planned", 100)

    first = reporter.sample()
    assert (first.done, first.total) == (0, 100)
    assert first.rate == 0.0 and first.eta_s is None
    assert first.fraction == 0.0

    clock.advance(1.0)
    registry.inc("approx.subsets_done", 10)
    second = reporter.sample()
    assert second.rate == pytest.approx(10.0)
    assert second.eta_s == pytest.approx(90 / 10.0)

    clock.advance(1.0)
    registry.inc("approx.subsets_done", 20)   # 30 done, instant rate 20/s
    third = reporter.sample()
    # EWMA with alpha=0.3: 0.3 * 20 + 0.7 * 10.
    assert third.rate == pytest.approx(13.0)
    assert third.eta_s == pytest.approx(70 / 13.0)
    assert third.fraction == pytest.approx(0.30)


def test_fraction_is_none_without_total_and_caps_at_one():
    assert LiveSample(done=5, total=0, rate=0, eta_s=None,
                      activity=5, stalled=False).fraction is None
    assert LiveSample(done=15, total=10, rate=0, eta_s=None,
                      activity=15, stalled=False).fraction == 1.0


def test_stall_detection_fires_after_quiet_intervals_and_rearms():
    registry = obs.MetricsRegistry()
    clock = _Clock()
    reporter = _reporter(registry, clock, stall_intervals=3)
    registry.inc("approx.subsets_done", 5)

    assert not reporter.sample().stalled        # establishes the baseline
    for _ in range(2):
        clock.advance(1.0)
        assert not reporter.sample().stalled    # 1, 2 quiet intervals
    clock.advance(1.0)
    assert reporter.sample().stalled            # 3rd quiet interval

    registry.inc("greedy.oracle_calls")         # any watched counter re-arms
    clock.advance(1.0)
    assert not reporter.sample().stalled


def test_activity_watches_the_default_counter_set():
    registry = obs.MetricsRegistry()
    reporter = _reporter(registry)
    for name in DEFAULT_ACTIVITY_COUNTERS:
        registry.inc(name)
    sample = reporter.sample()
    # subsets_done is both the progress counter and an activity counter,
    # so it counts twice in the liveness sum; the rest once each.
    assert sample.activity == len(DEFAULT_ACTIVITY_COUNTERS) + 1


def test_worker_gauges_become_utilization():
    registry = obs.MetricsRegistry()
    reporter = _reporter(registry)
    registry.set_gauge("approx.worker.111.subsets", 40)
    registry.set_gauge("approx.worker.222.subsets", 60)
    registry.set_gauge("unrelated.gauge", 1)
    sample = reporter.sample()
    assert sample.workers == {"111": 40, "222": 60}
    line = reporter.render(sample)
    assert "w111:40%" in line and "w222:60%" in line


def test_render_warming_up_and_stalled_marker():
    registry = obs.MetricsRegistry()
    reporter = _reporter(registry)
    sample = reporter.sample()
    line = reporter.render(sample)
    assert line.startswith("[live]")
    assert "warming up" in line and "eta ?" in line
    stalled = LiveSample(done=1, total=2, rate=0.5, eta_s=2.0,
                         activity=1, stalled=True)
    assert "STALLED" in reporter.render(stalled)


def test_fmt_eta_ranges():
    assert _fmt_eta(None) == "eta ?"
    assert _fmt_eta(45) == "eta 45s"
    assert _fmt_eta(125) == "eta 2m05s"
    assert _fmt_eta(7200) == "eta 2.0h"


# -- lifecycle (real thread) -------------------------------------------------


def test_start_stop_cleanly_and_emit_closing_sample():
    stream = io.StringIO()
    registry = obs.MetricsRegistry()
    registry.inc("approx.subsets_planned", 10)
    registry.inc("approx.subsets_done", 10)
    reporter = Sampler(
        SamplerConfig(interval_s=60.0), registry=registry, progress=stream
    )
    reporter.start()
    assert reporter.running
    with pytest.raises(RuntimeError, match="already running"):
        reporter.start()
    reporter.stop()
    assert not reporter.running
    reporter.stop()   # idempotent

    text = stream.getvalue()
    assert "[live]" in text and "10/10 subsets" in text
    assert text.endswith("\n")
    assert reporter.samples_taken >= 1


def test_context_manager_and_non_tty_plain_lines():
    stream = io.StringIO()
    registry = obs.MetricsRegistry()
    with Sampler(
        SamplerConfig(interval_s=0.01), registry=registry, progress=stream
    ):
        time.sleep(0.05)
    text = stream.getvalue()
    assert text and "\r" not in text
    assert all(not line or line.startswith("[live]")
               for line in text.split("\n"))


def test_tty_renders_in_place_then_final_newline():
    stream = _Tty()
    registry = obs.MetricsRegistry()
    with Sampler(
        SamplerConfig(interval_s=60.0), registry=registry, progress=stream
    ):
        pass
    text = stream.getvalue()
    assert text.startswith("\r")
    assert text.endswith("\n")


def test_stall_warning_emitted_once_and_counted():
    stream = io.StringIO()
    registry = obs.MetricsRegistry()
    reporter = Sampler(
        SamplerConfig(interval_s=0.01, stall_intervals=2),
        registry=registry, progress=stream,
    )
    with reporter:
        time.sleep(0.3)   # plenty of quiet samples -> exactly one episode
    assert reporter.stall_warnings == 1
    assert registry.snapshot()["counters"]["live.stalls"] == 1
    text = stream.getvalue()
    assert text.count("WARNING: no counter movement") == 1


def test_reporter_does_not_enable_obs_or_write_counters():
    """Off-by-default contract: a sampler left running over a healthy
    (moving) registry only reads — the global obs switch stays off and no
    counters appear that the solver did not write."""
    stream = io.StringIO()
    with Sampler(SamplerConfig(interval_s=60.0), progress=stream):
        pass
    assert not obs.is_enabled()
    assert obs.metrics_snapshot()["counters"] == {}


def test_write_survives_closed_stream():
    stream = io.StringIO()
    registry = obs.MetricsRegistry()
    reporter = Sampler(
        SamplerConfig(interval_s=60.0), registry=registry, progress=stream
    )
    reporter.start()
    stream.close()
    reporter.stop()   # must not raise despite the dead stream


# -- the ring buffer ---------------------------------------------------------


def test_record_splits_worker_gauges_from_the_rest():
    obs.enable()
    obs.counter_inc("approx.subsets_done", 7)
    obs.gauge_set("approx.worker.1234.subsets", 5)
    obs.gauge_set("mission.served", 371)
    sampler = Sampler(clock=_fake_clock())
    snap = sampler.snapshot()
    assert snap["t_s"] == 0.0
    assert snap["counters"]["approx.subsets_done"] == 7
    assert snap["workers"] == {"1234": 5}
    assert snap["gauges"] == {"mission.served": 371}
    assert snap["rss_mb"] is None or snap["rss_mb"] > 0
    # t_s is relative to the first snapshot, monotone increasing.
    assert sampler.snapshot()["t_s"] > 0.0


def test_ring_drops_oldest_and_counts():
    sampler = Sampler(SamplerConfig(interval_s=0.01, capacity=3),
                      clock=_fake_clock())
    for _ in range(5):
        sampler.snapshot()
    assert len(sampler) == 3
    assert sampler.dropped == 2
    times = [s["t_s"] for s in sampler.snapshots()]
    assert times == sorted(times) and times[0] > 0.0  # oldest two fell off


def test_every_tick_snapshots_and_marks_only_snapshot():
    """One sampler serves both outputs: each progress tick lands in the
    ring, and record_mark adds a snapshot without touching the rate."""
    obs.enable()
    obs.counter_inc("approx.subsets_planned", 10)
    sampler = Sampler(clock=_fake_clock())
    sampler.sample()
    obs.counter_inc("approx.subsets_done", 10)
    sampler.sample()
    assert len(sampler) == sampler.samples_taken == 2
    obs.set_active_recorder(sampler)
    try:
        assert obs.record_mark() is not None
    finally:
        obs.set_active_recorder(None)
    assert obs.record_mark() is None
    assert len(sampler) == 3 and sampler.samples_taken == 2
    assert report.counter_series(sampler.snapshots(),
                                 "approx.subsets_done") == [0, 10, 10]


def test_standalone_daemon_records_final_snapshot():
    obs.enable()
    obs.counter_inc("approx.subsets_done", 5)
    sampler = Sampler(SamplerConfig(interval_s=60.0))
    with sampler:
        assert sampler.running
        assert THREAD_NAME in {t.name for t in threading.enumerate()}
        with pytest.raises(RuntimeError, match="already running"):
            sampler.start()
    assert not sampler.running
    # The interval never elapsed, but stop() lands one closing snapshot
    # carrying the final cumulative counters.
    assert len(sampler) >= 1
    assert sampler.snapshots()[-1]["counters"]["approx.subsets_done"] == 5


# -- derived series ----------------------------------------------------------


def _synthetic_snapshots() -> list:
    return [
        {"t_s": 0.0, "counters": {"approx.subsets_done": 0},
         "workers": {}, "gauges": {}, "rss_mb": 40.0},
        {"t_s": 1.0, "counters": {"approx.subsets_done": 10},
         "workers": {"1": 6, "2": 4}, "gauges": {}, "rss_mb": 44.0},
        {"t_s": 3.0, "counters": {"approx.subsets_done": 14},
         "workers": {"1": 8, "2": 6}, "gauges": {}, "rss_mb": None},
    ]


def test_derived_series():
    snaps = _synthetic_snapshots()
    assert report.counter_series(snaps, "approx.subsets_done") == [0, 10, 14]
    assert report.rate_series(snaps) == [10.0, 2.0]
    assert report.rss_series(snaps) == [40.0, 44.0]
    assert report.worker_totals(snaps) == {"1": 8, "2": 6}
    text = report.timeline_summary(snaps, dropped=4)
    assert "3 snapshots over 3.0s, 4 dropped" in text
    assert "w1:57% w2:42%" in text


def test_rate_series_clamps_resets_to_zero():
    snaps = [
        {"t_s": 0.0, "counters": {"approx.subsets_done": 9}},
        {"t_s": 1.0, "counters": {"approx.subsets_done": 4}},
    ]
    assert report.rate_series(snaps) == [0.0]


def test_sparkline_shapes():
    assert sparkline([]) == "(no data)"
    assert len(sparkline(list(range(100)), width=20)) == 20
    ramp = sparkline([0, 1, 2, 3], width=4)
    assert ramp[0] != ramp[-1]  # intensity moves with the data
    flat = sparkline([5, 5, 5], width=3)
    assert len(set(flat)) == 1  # constant series renders uniformly
    with pytest.raises(ValueError):
        sparkline([1], width=0)
