"""One keyed compare for perf trajectories and run records.

``repro perf-diff A B`` (``BENCH_approx.json`` points or run records)
and ``repro runs compare A B`` (two run records) reduce their inputs to
*points* keyed on ``(scenario, algorithm, workers, scale)``, each with a
``wall_s`` and per-kernel timings, and feed them to :func:`compare`.
Each side's value is the **median of the most recent** ``window``
points per key; every key and every kernel is classified:

* ``regressed`` — current exceeds baseline by more than ``threshold``
  (strictly: ``delta > threshold``);
* ``improved`` — faster by more than the threshold;
* ``unchanged`` — within the band (inclusive at both edges);
* ``new`` / ``missing`` — present on one side only.

Keys and kernels are ranked worst first.  Only wall-time regressions
fail the gate (:attr:`Comparison.exit_code` is 1 iff a key's wall time
regressed); kernel movement names *which* kernel to blame.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.record import RunRecord, read_record
from repro.util.tables import format_table

KEY_FIELDS = ("scenario", "algorithm", "workers", "scale")
#: Kernel timing columns of trajectory points → their table label.
KERNEL_FIELDS = {"context_build_s": "context s", "bound_pass_ms": "bound ms",
                 "gain_matrix_ms": "gain ms"}

REGRESSED, IMPROVED, UNCHANGED = "regressed", "improved", "unchanged"
NEW, MISSING = "new", "missing"
_RANK = {REGRESSED: 0, NEW: 1, MISSING: 2, IMPROVED: 3, UNCHANGED: 4}


def classify(baseline: "float | None", current: "float | None",
             threshold: float) -> "tuple[str, float | None]":
    """(status, relative delta) of one measured value."""
    if baseline is None:
        return NEW, None
    if current is None:
        return MISSING, None
    if baseline <= 0:   # no meaningful relative delta against zero
        return UNCHANGED, None
    delta = (current - baseline) / baseline
    if delta > threshold:
        return REGRESSED, delta
    if delta < -threshold:
        return IMPROVED, delta
    return UNCHANGED, delta


@dataclass(frozen=True)
class Delta:
    """One classified value: a key's wall time (``name`` is the key
    tuple, ``kernels`` its kernel deltas worst first) or one kernel's
    timing within a key (``name`` is the kernel)."""

    name: "tuple | str"
    status: str
    baseline: "float | None" = None
    current: "float | None" = None
    delta: "float | None" = None
    kernels: tuple = ()

    def rank(self) -> tuple:
        return _RANK[self.status], -(self.delta or 0.0), str(self.name)

    def worst_kernel(self) -> "Delta | None":
        """The kernel with the largest relative slowdown, if any regressed."""
        worst = self.kernels[0] if self.kernels else None
        return worst if worst and worst.status == REGRESSED else None

    def to_dict(self) -> dict:
        data = {"status": self.status, "baseline": self.baseline,
                "current": self.current, "delta": self.delta}
        if isinstance(self.name, str):
            return {"kernel": self.name, **data}
        return {"key": dict(zip(KEY_FIELDS, self.name)), **data,
                "kernels": [k.to_dict() for k in self.kernels]}


def _classified(name, baseline, current, threshold, kernels=()) -> Delta:
    status, delta = classify(baseline, current, threshold)
    return Delta(name, status, baseline, current, delta, kernels)


def _fmt(value: "float | None", spec: str = ".4g") -> str:
    return "-" if value is None else format(value, spec)


def _status(status: str) -> str:
    return status.upper() if status == REGRESSED else status


@dataclass
class Comparison:
    """The result of :func:`compare`, with its text and JSON renderers."""

    title: str
    threshold: float
    window: int
    entries: list = field(default_factory=list)   # key Deltas, worst first
    coverage: "dict | None" = None   # {"baseline": stats, "current": stats}

    @property
    def regressions(self) -> list:
        return [e for e in self.entries if e.status == REGRESSED]

    @property
    def exit_code(self) -> int:
        """1 iff a key's wall time regressed."""
        return 1 if self.regressions else 0

    @property
    def dominant_regression(self) -> "Delta | None":
        """The regressed kernel with the largest relative slowdown."""
        worst = [k for e in self.entries if (k := e.worst_kernel())]
        return max(worst, key=lambda k: k.delta) if worst else None

    def counts(self) -> dict:
        return dict(Counter(e.status for e in self.entries))

    def attribution(self) -> list:
        """The dominant regressing kernel per key, worst first."""
        out = [{"key": dict(zip(KEY_FIELDS, e.name)), "kernel": k.name,
                "baseline": k.baseline, "current": k.current,
                "delta": k.delta}
               for e in self.entries if (k := e.worst_kernel())]
        return sorted(out, key=lambda a: -a["delta"])

    def attribution_text(self) -> str:
        lines = [f"  {a['key']['scenario']}/{a['key']['algorithm']}: "
                 f"kernel '{a['kernel']}' {a['baseline']:.4g} -> "
                 f"{a['current']:.4g} ({a['delta']:+.1%})"
                 for a in self.attribution()]
        if not lines:
            return ("attribution: no kernel-level timings moved beyond the "
                    "threshold (or none were recorded)")
        return "\n".join(
            ["attribution (dominant regressing kernel per key):", *lines])

    def to_dict(self) -> dict:
        dominant = self.dominant_regression
        return {"title": self.title, "threshold": self.threshold,
                "window": self.window, "counts": self.counts(),
                "regression": bool(self.regressions),
                "entries": [e.to_dict() for e in self.entries],
                "dominant_regression": dominant.name if dominant else None,
                "coverage": self.coverage}

    def to_text(self) -> str:
        blocks = [format_table(
            [*KEY_FIELDS, "base s", "now s", "delta", "status"],
            [[*e.name, _fmt(e.baseline, ".4f"), _fmt(e.current, ".4f"),
              _fmt(e.delta, "+.1%"), _status(e.status)]
             for e in self.entries],
            title=self.title,
        )]
        kernel_rows = [
            [e.name[0], KERNEL_FIELDS.get(k.name, k.name), _fmt(k.baseline),
             _fmt(k.current) + ("!" if k.status == REGRESSED else ""),
             _fmt(k.delta, "+.1%"), _status(k.status)]
            for e in self.entries for k in e.kernels
        ]
        if kernel_rows:
            blocks.append(format_table(
                ["scenario", "kernel", "base", "now", "delta", "status"],
                kernel_rows, title="kernels (ms unless the name says s)",
            ))
        verdict = "no regression"
        if self.regressions:
            verdict = (f"REGRESSION: {len(self.regressions)} key(s) slower "
                       f"than baseline by more than {self.threshold:.0%}")
            if (k := self.dominant_regression) is not None:
                verdict += (f"\nREGRESSION: kernel '{k.name}' slowed "
                            f"{k.delta:+.1%} ({k.baseline:.4g} -> "
                            f"{k.current:.4g})")
        summary = ", ".join(f"{n} {status}" for status, n
                            in sorted(self.counts().items())) or "no keys"
        blocks.append(f"{summary}\n{verdict}")
        if self.coverage is not None:
            base, cur = self.coverage["baseline"], self.coverage["current"]
            pct = base["unit"] == "fraction"
            fmt, fmt_delta = (".1%", "+.1%") if pct else (".0f", "+.0f")
            blocks.append(format_table(
                ["coverage", "base", "now", "delta"],
                [[name, _fmt(base[name], fmt), _fmt(cur[name], fmt),
                  _fmt(cur[name] - base[name] if base["unit"] == cur["unit"]
                       else None, fmt_delta)]
                 for name in ("mean", "min", "final")],
                title=f"coverage over time ({base['unit']}, "
                f"{base['samples']} vs {cur['samples']} samples)",
            ))
        return "\n\n".join(blocks)


def _medians(points: list, window: int) -> dict:
    """key -> {"wall_s" or kernel -> median of the last ``window``
    measured values}."""
    series: dict = {}
    for point in points:
        per_key = series.setdefault(
            tuple(point.get(f) for f in KEY_FIELDS), {})
        values = {"wall_s": point.get("wall_s"),
                  **{k: point.get(k) for k in KERNEL_FIELDS},
                  **point.get("kernels", {})}
        for name, value in values.items():
            if value is not None:
                per_key.setdefault(name, []).append(float(value))
    return {key: {name: statistics.median(v[-window:])
                  for name, v in per_key.items()}
            for key, per_key in series.items()}


def compare(baseline: list, current: list, threshold: float = 0.15,
            window: int = 3, title: "str | None" = None) -> Comparison:
    """Classify every key (wall time) and kernel between two point lists."""
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    base, cur = _medians(baseline, window), _medians(current, window)
    entries = []
    for key in set(base) | set(cur):
        b, c = base.get(key, {}), cur.get(key, {})
        kernels = sorted(
            (_classified(name, b.get(name), c.get(name), threshold)
             for name in (set(b) | set(c)) - {"wall_s"}), key=Delta.rank)
        entries.append(_classified(key, b.get("wall_s"), c.get("wall_s"),
                                   threshold, tuple(kernels)))
    return Comparison(
        title=title or f"perf-diff (threshold ±{threshold:.0%}, median of "
        f"last {window})",
        threshold=threshold, window=window,
        entries=sorted(entries, key=Delta.rank),
    )


# -- inputs ------------------------------------------------------------------


def record_point(record: RunRecord) -> dict:
    """A run record as one point; its span totals (ms) are the kernels."""
    spec = record.spec if isinstance(record.spec, dict) else {}
    config = record.config or {}
    return {
        "scenario": (f"{record.command}:{spec['name']}" if spec.get("name")
                     else record.command),
        "algorithm": record.algorithm or record.command,
        "workers": int(spec.get("workers") or config.get("workers") or 1),
        "scale": spec.get("scale") or config.get("scale") or "?",
        "wall_s": float(record.wall_s),
        "kernels": {name: agg["total_ms"]
                    for name, agg in record.kernels.items()},
    }


def coverage_stats(timeline: list) -> "dict | None":
    """Coverage over time from a record's snapshots, or ``None``: the
    ``dynamic.served / dynamic.active_users`` fraction of dynamic
    missions, else the raw ``mission.served`` count (unit ``users``)."""
    values, unit = [], None
    for snap in timeline:
        gauges = snap.get("gauges") or {}
        if "dynamic.served" in gauges:
            active = float(gauges.get("dynamic.active_users", 0.0))
            values.append(float(gauges["dynamic.served"]) / active
                          if active else 1.0)
            unit = unit or "fraction"
        elif "mission.served" in gauges:
            values.append(float(gauges["mission.served"]))
            unit = unit or "users"
    if not values:
        return None
    return {"unit": unit, "samples": len(values), "min": min(values),
            "mean": sum(values) / len(values), "final": values[-1]}


def compare_runs(baseline: RunRecord, current: RunRecord,
                 threshold: float = 0.15) -> Comparison:
    """Compare two records under one key (the baseline's), so any two
    runs line up; adds the coverage section when both carry coverage."""
    base = record_point(baseline)
    key = {f: base[f] for f in KEY_FIELDS}
    result = compare(
        [base], [{**record_point(current), **key}], threshold, window=1,
        title=f"runs compare {baseline.name} -> {current.name} "
        f"(threshold ±{threshold:.0%})",
    )
    stats = coverage_stats(baseline.timeline), coverage_stats(current.timeline)
    if None not in stats:
        result.coverage = {"baseline": stats[0], "current": stats[1]}
    return result


def load_points(path: "str | Path") -> list:
    """Points from a trajectory JSON (``{"points": [...]}`` or a bare
    list) or a run record (file or run directory).  Raises
    ``FileNotFoundError`` for a missing path, ``ValueError`` otherwise."""
    path = Path(path)
    if not path.is_dir():
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            data = None
        if isinstance(data, dict) and isinstance(data.get("points"), list):
            data = data["points"]
        if isinstance(data, list):
            return [p for p in data if isinstance(p, dict)]
    try:
        record = read_record(path)
    except ValueError as exc:
        raise ValueError(f"{path} is neither a perf trajectory (JSON with "
                         f"'points') nor a run record: {exc}") from None
    return [record_point(record)] if record.wall_s else []


def perf_diff_paths(baseline_path: "str | Path", current_path: "str | Path",
                    threshold: float = 0.15, window: int = 3) -> Comparison:
    """File-level entry point of ``repro perf-diff``."""
    return compare(load_points(baseline_path), load_points(current_path),
                   threshold=threshold, window=window)
