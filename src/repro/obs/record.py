"""The run record: one JSONL file per observed run, and the archive of them.

One JSON object per line, ``type`` discriminated: a ``header`` (schema,
command, the exact ``ScenarioSpec``/``DynamicSpec`` JSON that ran — a
list for ``batch`` — its ``scenario_key``, seed, algorithm, CLI config,
git revision, wall time, exit code, served users, and the sampler's
``interval_s`` / ``dropped``), then every ``span`` in entry order, the
sampler's ``snapshot`` ring, the final ``metrics``, and the ``profile``
aggregate when one was taken.  ``--trace`` and ``--timeline`` write this
file; ``--archive`` writes it to ``.repro/runs/<id>/run.jsonl`` and adds
an ``index.json`` entry.  :func:`read_record` takes the file or its run
directory and raises ``ValueError`` naming the schema of anything else:
an older schema is never half-read.  Every write is atomic.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.util.atomic import atomic_write_json, atomic_write_text

SCHEMA_VERSION = 2
RECORD_FILE = "run.jsonl"
#: Default archive root, relative to the working directory.
DEFAULT_ROOT = Path(".repro") / "runs"
_BODY = ("spans", "timeline", "metrics", "profile", "path")


def _json_safe(value: object) -> object:
    """Best-effort conversion of arbitrary config values to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_json_safe(v) for v in value]
    return repr(value)


def git_revision(cwd: "str | Path | None" = None) -> "str | None":
    """Short git revision of the working tree, or ``None`` outside a repo
    (never raises — observability must not take a run down)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def span_totals(spans: "list | None") -> dict:
    """Aggregate spans (objects or dicts) by name → ``{count, total_ms,
    max_ms}``: the kernel-timing view compares attribute regressions to."""
    totals: dict = {}
    for span in spans or []:
        record = span if isinstance(span, dict) else span.to_dict()
        agg = totals.setdefault(
            record["name"], {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
        )
        ms = record["duration_ns"] / 1e6
        agg["count"] += 1
        agg["total_ms"] = round(agg["total_ms"] + ms, 3)
        agg["max_ms"] = round(max(agg["max_ms"], ms), 3)
    return totals


@dataclass
class RunRecord:
    """Everything one observed run left behind."""

    command: str                    # e.g. "run", "fig4", "dynamic"
    spec: "dict | list | None" = None
    scenario_key: "list | None" = None
    seed: "int | None" = None
    algorithm: "str | None" = None
    config: dict = field(default_factory=dict)
    git_rev: "str | None" = None
    wall_s: float = 0.0
    exit_code: "int | None" = None  # None: the command raised
    served: "int | None" = None
    created_unix: float = field(default_factory=time.time)
    interval_s: "float | None" = None
    dropped: int = 0
    id: "str | None" = None         # set by the archive
    spans: list = field(default_factory=list)      # dicts, entry order
    timeline: list = field(default_factory=list)   # snapshots, oldest first
    metrics: dict = field(default_factory=dict)
    profile: "dict | None" = None
    path: "Path | None" = field(default=None, compare=False)

    @property
    def name(self) -> str:
        """The archive id, else the file name."""
        return self.id or (self.path.name if self.path else self.command)

    @property
    def kernels(self) -> dict:
        return span_totals(self.spans)

    def header(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in _BODY}

    def to_jsonl(self) -> str:
        spans = sorted(
            (s if isinstance(s, dict) else s.to_dict() for s in self.spans),
            key=lambda r: r.get("index", 0),
        )
        lines = [{"type": "header", "schema": SCHEMA_VERSION,
                  **_json_safe(self.header())}]
        lines += [{"type": "span", **s} for s in spans]
        lines += [{"type": "snapshot", **s} for s in self.timeline]
        lines.append({"type": "metrics", **self.metrics})
        if self.profile is not None:
            lines.append({"type": "profile", **self.profile})
        return "".join(json.dumps(line) + "\n" for line in lines)


def write_record(path: "str | Path", record: RunRecord) -> Path:
    """Write ``record`` as JSONL (atomic: a run killed mid-flush leaves
    the previous complete file or none)."""
    return atomic_write_text(path, record.to_jsonl())


def _unreadable(path: Path, kind: object, schema: object) -> ValueError:
    return ValueError(
        f"{path}: cannot read run record schema {schema!r} (first line "
        f"type {kind!r}); this build reads schema {SCHEMA_VERSION}"
    )


def read_record(path: "str | Path") -> RunRecord:
    """Parse a run record file, or the ``run.jsonl`` of a run directory."""
    path = Path(path)
    if path.is_dir():
        legacy = path / "run.json"
        if not (path / RECORD_FILE).exists() and legacy.exists():
            old = json.loads(legacy.read_text())
            raise _unreadable(path, "run.json", old.get("schema"))
        path = path / RECORD_FILE
    lines = [json.loads(line) for line in
             path.read_text(encoding="utf-8").splitlines() if line.strip()]
    if not lines or not isinstance(lines[0], dict):
        raise ValueError(f"{path}: not a run record")
    header = dict(lines[0])
    kind, schema = header.pop("type", None), header.pop("schema", None)
    if kind != "header" or schema != SCHEMA_VERSION:
        raise _unreadable(path, kind, schema)
    names = {f.name for f in fields(RunRecord)} - set(_BODY)
    record = RunRecord(**{k: v for k, v in header.items() if k in names},
                       path=path)
    for line in lines[1:]:
        kind = line.pop("type", None)
        if kind == "span":
            record.spans.append(line)
        elif kind == "snapshot":
            record.timeline.append(line)
        elif kind == "metrics":
            record.metrics = line
        elif kind == "profile":
            record.profile = line
        else:
            raise ValueError(f"{path}: unknown run record line {kind!r}")
    return record


def build_record(
    command: str,
    *,
    wall_s: float,
    exit_code: "int | None",
    spans: list,
    metrics: dict,
    spec: "object | list | None" = None,
    seed: "int | None" = None,
    algorithm: "str | None" = None,
    config: "dict | None" = None,
    served: "int | None" = None,
    sampler: "object | None" = None,
    profiler: "object | None" = None,
) -> RunRecord:
    """The one place a run record is assembled.  ``spec`` is the spec
    object that ran (a ``ScenarioSpec``/``DynamicSpec``) or a list of
    them; a single spec also supplies the seed and algorithm."""
    specs = list(spec) if isinstance(spec, (list, tuple)) else (
        [] if spec is None else [spec])
    docs = [s.to_dict() for s in specs]
    keys = [list(s.scenario_key()) for s in specs]
    single = specs[0] if len(specs) == 1 else None
    return RunRecord(
        command=command,
        spec=_json_safe(docs[0] if single else docs or None),
        scenario_key=_json_safe(keys[0] if single else keys or None),
        seed=single.seed if single else seed,
        algorithm=single.algorithm if single else algorithm,
        config=_json_safe({k: v for k, v in (config or {}).items()
                           if not k.startswith("_") and not callable(v)}),
        git_rev=git_revision(),
        wall_s=wall_s,
        exit_code=exit_code,
        served=served,
        interval_s=sampler.config.interval_s if sampler else None,
        dropped=sampler.dropped if sampler else 0,
        spans=[s if isinstance(s, dict) else s.to_dict() for s in spans],
        timeline=sampler.snapshots() if sampler else [],
        metrics=metrics,
        profile=profiler.to_dict() if profiler else None,
    )


def chrome_trace(spans: list) -> dict:
    """Spans → Chrome trace format (``"X"`` events, µs from the first)."""
    records = [s if isinstance(s, dict) else s.to_dict() for s in spans]
    base_ns = min((r["start_ns"] for r in records), default=0)
    events = []
    for r in records:
        args = dict(r.get("attrs", {}))
        if r.get("error"):
            args["error"] = r["error"]
        events.append({"name": r["name"], "ph": "X",
                       "ts": (r["start_ns"] - base_ns) / 1000.0,
                       "dur": r["duration_ns"] / 1000.0,
                       "pid": r["pid"], "tid": r["tid"], "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: "str | Path", spans: list) -> Path:
    return atomic_write_text(path, json.dumps(chrome_trace(spans), indent=1))


class RunArchive:
    """The ``.repro/runs/`` store: ``<id>/run.jsonl`` per run plus an
    ``index.json`` that ``repro runs list`` reads without opening runs."""

    def __init__(self, root: "str | Path" = DEFAULT_ROOT) -> None:
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def record_run(self, record: RunRecord,
                   profiler: "object | None" = None) -> str:
        """Store ``record`` under a fresh ``run-NNNN`` id and return it;
        a ``profiler`` also leaves its speedscope export next to it."""
        entries = self.list_runs()
        number = len(entries) + 1
        while (self.root / f"run-{number:04d}").exists():
            number += 1
        record.id = f"run-{number:04d}"
        run_dir = self.root / record.id
        record.path = write_record(run_dir / RECORD_FILE, record)
        if profiler is not None:
            profiler.write_speedscope(
                run_dir / "profile.speedscope.json",
                name=f"{record.command} ({record.id})",
            )
        entries.append({
            "id": record.id,
            "created_unix": round(float(record.created_unix), 3),
            "command": record.command,
            "algorithm": record.algorithm,
            "scenario_key": record.scenario_key,
            "wall_s": round(float(record.wall_s or 0.0), 4),
            "served": record.served,
            "has_timeline": bool(record.timeline),
            "has_profile": record.profile is not None,
        })
        atomic_write_json(self.index_path,
                          {"schema": SCHEMA_VERSION, "runs": entries})
        return record.id

    def list_runs(self) -> list:
        """Index entries, oldest first (a corrupt index reads as empty)."""
        try:
            data = json.loads(self.index_path.read_text())
        except (OSError, ValueError):
            return []
        runs = data.get("runs") if isinstance(data, dict) else None
        return runs if isinstance(runs, list) else []

    def load(self, ref: "str | Path") -> RunRecord:
        """A run by archive id or record path; ``KeyError`` (listing the
        known ids) when ``ref`` is neither."""
        path = Path(ref)
        if not path.exists():
            path = self.root / str(ref)
        if not path.exists():
            known = ", ".join(e.get("id", "?") for e in self.list_runs())
            raise KeyError(f"no archived run {str(ref)!r} under {self.root} "
                           f"(known: {known or 'none'})")
        return read_record(path)
