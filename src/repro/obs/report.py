"""Text summary of a run record (``repro trace-report``, ``repro runs
show``): the header, the kernel-timing table (spans aggregated by name),
timeline sparklines, counters, histograms, and the profile's hottest
functions — "where did the time go" without opening ``chrome://tracing``.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from repro.obs.record import RunRecord, read_record
from repro.obs.sampler import PROGRESS_COUNTER, worker_split
from repro.util.tables import format_table


def counter_series(snapshots: list, name: str) -> list:
    """The cumulative values of counter ``name`` across ``snapshots``."""
    return [int(s.get("counters", {}).get(name, 0)) for s in snapshots]


def rate_series(snapshots: list, name: str = PROGRESS_COUNTER) -> list:
    """Per-interval throughput (Δcounter/Δt) between adjacent snapshots."""
    rates = []
    for prev, cur in zip(snapshots, snapshots[1:]):
        dt = float(cur.get("t_s", 0.0)) - float(prev.get("t_s", 0.0))
        if dt > 0:
            delta = (int(cur.get("counters", {}).get(name, 0))
                     - int(prev.get("counters", {}).get(name, 0)))
            rates.append(max(0.0, delta / dt))
    return rates


def rss_series(snapshots: list) -> list:
    """The RSS samples (MB) that were measurable, in order."""
    return [s["rss_mb"] for s in snapshots if s.get("rss_mb") is not None]


def worker_totals(snapshots: list) -> dict:
    """pid -> final absorbed-subset gauge (utilization split of the run)."""
    totals: dict = {}
    for snap in snapshots:
        totals.update(snap.get("workers", {}))
    return {pid: int(n) for pid, n in totals.items()}


def timeline_summary(snapshots: list, dropped: int = 0) -> str:
    """ASCII sparklines of subset throughput, progress and RSS, plus the
    final per-worker split."""
    from repro.util.charts import sparkline

    if not snapshots:
        return "timeline: no snapshots recorded"
    duration = float(snapshots[-1].get("t_s", 0.0))
    lines = [f"timeline ({len(snapshots)} snapshots over {duration:.1f}s"
             + (f", {dropped} dropped" if dropped else "") + ")"]
    for label, series, unit in (
        ("subsets/s", rate_series(snapshots), ""),
        ("done", counter_series(snapshots, PROGRESS_COUNTER), ""),
        ("rss_mb", rss_series(snapshots), " MB"),
    ):
        if series and any(series):
            lines.append(f"  {label:<11s} {sparkline(series)}  "
                         f"{min(series):.6g}..{max(series):.6g}{unit}")
    workers = worker_totals(snapshots)
    if workers:
        lines.append(f"  workers     {worker_split(workers)}")
    if len(lines) == 1:
        lines.append("  (no nonzero series)")
    return "\n".join(lines)


def _header(record: RunRecord) -> str:
    specs = record.spec if isinstance(record.spec, list) else [record.spec]
    lines = [f"run {record.name}: command {record.command}",
             f"algorithm: {record.algorithm}", *(
                 f"scenario: {s['name']} (scale={s.get('scale')}, "
                 f"users={s.get('num_users')}, uavs={s.get('num_uavs')})"
                 for s in specs if s),
             f"scenario_key: {record.scenario_key}",
             f"seed: {record.seed}", f"git: {record.git_rev}",
             f"wall: {record.wall_s:.3f}s, exit "
             f"{'raised' if record.exit_code is None else record.exit_code}"
             + ("" if record.served is None else f", served {record.served}")]
    return "\n".join(line for line in lines if not line.endswith(": None"))


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.2f}"


def summarize(record: RunRecord) -> str:
    """Render one run record as text."""
    blocks = [_header(record)]
    if not record.spans:
        blocks.append("no spans recorded")
    else:
        total_ns = sum(s["duration_ns"] for s in record.spans
                       if s.get("depth", 0) == 0) or 1
        by_name: dict = {}
        for s in record.spans:
            agg = by_name.setdefault(s["name"], [0, 0, 0, 0])
            agg[0] += 1
            agg[1] += s["duration_ns"]
            agg[2] = max(agg[2], s["duration_ns"])
            agg[3] += 1 if s.get("error") else 0
        rows = [[name, n, _ms(total), _ms(total / n), _ms(peak),
                 f"{100.0 * total / total_ns:.1f}%", errors or "-"]
                for name, (n, total, peak, errors)
                in sorted(by_name.items(), key=lambda kv: -kv[1][1])]
        blocks.append(format_table(
            ["span", "count", "total ms", "mean ms", "max ms", "share",
             "errors"], rows,
            title=f"kernel timings ({len(record.spans)} spans recorded)",
        ))
    if record.timeline:
        blocks.append(timeline_summary(record.timeline, record.dropped))
    counters = record.metrics.get("counters", {})
    if counters:
        blocks.append(format_table(
            ["counter", "value"],
            [[name, counters[name]] for name in sorted(counters)],
            title="counters",
        ))
    histograms = record.metrics.get("histograms", {})
    if histograms:
        blocks.append(format_table(
            ["histogram", "count", "mean", "min", "max"],
            [[name, h.get("count", 0),
              f"{h.get('total', 0.0) / max(h.get('count', 0), 1):.4g}",
              "-" if h.get("min") is None else f"{h['min']:.4g}",
              "-" if h.get("max") is None else f"{h['max']:.4g}"]
             for name, h in sorted(histograms.items())],
            title="histograms",
        ))
    if record.profile:
        leaves: Counter = Counter()
        for entry in record.profile.get("stacks", []):
            leaves[(entry.get("frames") or ["?"])[-1]] += entry.get("count", 0)
        if leaves:
            blocks.append(format_table(
                ["function", "samples"], leaves.most_common(10),
                title=f"profile ({record.profile.get('samples', 0)} samples)",
            ))
    return "\n\n".join(blocks)


def trace_report(path: "str | Path") -> str:
    """Read a run record (file or run directory) and summarize it."""
    return summarize(read_record(path))
