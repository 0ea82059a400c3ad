"""OpenMetrics/Prometheus textfile export of the metrics registry.

Dotted repro names (``approx.subsets_evaluated``) become valid
OpenMetrics names (invalid characters → ``_``).  Counters export as
``<name>_total``, gauges as ``<name>``, histograms as a summary
(``_count`` / ``_sum``) plus ``_min`` / ``_max`` gauges.  An optional
``info`` mapping becomes ``repro_run_info{key="value", ...} 1``; output
ends with the mandatory ``# EOF``.  Write with :func:`write_openmetrics`
or ``--metrics-out PATH --metrics-format openmetrics``.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

from repro.obs.metrics import REGISTRY
from repro.util.atomic import atomic_write_text

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(raw: str) -> str:
    """A dotted repro metric name as a valid OpenMetrics name."""
    name = _INVALID_CHARS.sub("_", raw)
    if not name or not _NAME_OK.match(name):
        name = "_" + name
    return name


def _escape_label(value: object) -> str:
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return text.replace("\n", "\\n")


def _fmt_value(value: object) -> str:
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_openmetrics(
    snapshot: "dict | None" = None,
    info: "dict | None" = None,
) -> str:
    """The registry snapshot as OpenMetrics exposition text.

    ``snapshot`` defaults to the live registry
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`); pass the
    ``metrics`` section of a trace file to export a recorded run.
    """
    if snapshot is None:
        snapshot = REGISTRY.snapshot()
    lines: list = []
    seen: set = set()

    def declare(name: str, kind: str) -> bool:
        if name in seen:   # a sanitized-name collision; first family wins
            return False
        seen.add(name)
        lines.append(f"# TYPE {name} {kind}")
        return True

    if info:
        if declare("repro_run", "info"):
            labels = ",".join(
                f'{metric_name(str(k))}="{_escape_label(v)}"'
                for k, v in sorted(info.items())
                if v is not None
            )
            lines.append(f"repro_run_info{{{labels}}} 1")

    for raw in sorted(snapshot.get("counters", {})):
        name = metric_name(raw)
        if declare(name, "counter"):
            value = _fmt_value(snapshot["counters"][raw])
            lines.append(f"{name}_total {value}")

    for raw in sorted(snapshot.get("gauges", {})):
        name = metric_name(raw)
        if declare(name, "gauge"):
            lines.append(f"{name} {_fmt_value(snapshot['gauges'][raw])}")

    for raw in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][raw]
        name = metric_name(raw)
        if not declare(name, "summary"):
            continue
        count = int(data.get("count", 0))
        lines.append(f"{name}_count {count}")
        lines.append(f"{name}_sum {_fmt_value(data.get('total', 0.0))}")
        for bound in ("min", "max"):
            value = data.get(bound)
            if value is not None and declare(f"{name}_{bound}", "gauge"):
                lines.append(f"{name}_{bound} {_fmt_value(value)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_openmetrics(
    path: "str | Path",
    snapshot: "dict | None" = None,
    info: "dict | None" = None,
) -> Path:
    """Write :func:`render_openmetrics` output to ``path`` (atomic, so a
    scraper never reads a half-written exposition)."""
    return atomic_write_text(path, render_openmetrics(snapshot, info))
