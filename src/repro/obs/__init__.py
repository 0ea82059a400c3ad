"""repro.obs — zero-dependency observability, off by default.

:func:`enable` switches on the span tracer and the metrics helpers; while
disabled every instrumentation site (``obs.span`` / ``obs.counter_inc``
/ ...) short-circuits on one module-level boolean.  The pieces:
spans and metrics (:mod:`~repro.obs.trace`, :mod:`~repro.obs.metrics`);
the :class:`Sampler` (ring-buffered timeline + ``--live`` line); the one
JSONL :class:`RunRecord` that ``--trace`` / ``--timeline`` /
``--archive`` write, built by :func:`build_record`; the keyed
:func:`compare` behind ``perf-diff`` and ``runs compare``; the
:class:`SamplingProfiler`; and OpenMetrics export.  See
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from repro.obs.compare import (
    Comparison,
    Delta,
    classify,
    compare,
    compare_runs,
    load_points,
    perf_diff_paths,
)
from repro.obs.export import metric_name, render_openmetrics, write_openmetrics
from repro.obs.metrics import REGISTRY, Histogram, MetricsRegistry
from repro.obs.profile import (
    ProfileConfig,
    SamplingProfiler,
    current_rss_mb,
    peak_rss_mb,
    stage_watermark,
)
from repro.obs.record import (
    RunArchive,
    RunRecord,
    build_record,
    chrome_trace,
    git_revision,
    read_record,
    span_totals,
    write_chrome_trace,
    write_record,
)
from repro.obs.report import summarize, timeline_summary, trace_report
from repro.obs.sampler import (
    LiveSample,
    Sampler,
    SamplerConfig,
    record_mark,
    set_active_recorder,
)
from repro.obs.trace import (
    Span,
    absorb_state,
    disable,
    drain_spans,
    enable,
    export_state,
    is_enabled,
    open_span_count,
    snapshot_spans,
    span,
    traced,
    worker_reset,
)
from repro.obs.trace import reset as _reset_spans

__all__ = [
    "enable", "disable", "is_enabled", "span", "traced", "Span",
    "open_span_count", "snapshot_spans", "drain_spans", "reset",
    "counter_inc", "gauge_set", "observe", "metrics_snapshot",
    "export_obs_state", "absorb_obs_state", "absorb_state", "export_state",
    "worker_reset", "worker_init", "REGISTRY", "MetricsRegistry",
    "Histogram", "RunRecord", "build_record", "write_record", "read_record",
    "RunArchive", "span_totals", "chrome_trace", "write_chrome_trace",
    "git_revision", "trace_report", "summarize", "timeline_summary",
    "Sampler", "SamplerConfig", "LiveSample", "set_active_recorder",
    "record_mark", "Comparison", "Delta", "classify", "compare",
    "compare_runs", "load_points", "perf_diff_paths", "metric_name",
    "render_openmetrics", "write_openmetrics", "SamplingProfiler",
    "ProfileConfig", "stage_watermark", "peak_rss_mb", "current_rss_mb",
]


# -- guarded metrics helpers (cheap no-ops while disabled) -------------------


def counter_inc(name: str, amount: int = 1) -> None:
    """Increment a counter (no-op while observability is off)."""
    if not is_enabled():
        return
    REGISTRY.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    if not is_enabled():
        return
    REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation (no-op while off)."""
    if not is_enabled():
        return
    REGISTRY.observe(name, value)


def metrics_snapshot() -> dict:
    return REGISTRY.snapshot()


def reset() -> None:
    """Clear spans and metrics (enabled flag is left as-is)."""
    _reset_spans()
    REGISTRY.reset()


# -- process-pool plumbing ---------------------------------------------------


def export_obs_state() -> "dict | None":
    """Ship a worker's spans + metrics delta back to the parent.

    Returns ``None`` when observability is off, so the common case costs
    one boolean check and pickles nothing extra.
    """
    if not is_enabled():
        return None
    return {"spans": export_state(), "metrics": REGISTRY.export_and_reset()}


def absorb_obs_state(payload: "dict | None") -> None:
    """Merge a worker's :func:`export_obs_state` payload (parent side)."""
    if not payload:
        return
    absorb_state(payload.get("spans"))
    REGISTRY.merge(payload.get("metrics"))


def worker_init(enabled: bool) -> None:
    """Reset + configure observability inside a fresh pool worker."""
    worker_reset(enabled)
    REGISTRY.reset()
