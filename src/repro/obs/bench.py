"""The ``BENCH_approx.json`` perf-trajectory schema and its merge.

The single definition of a trajectory point: the bench session
(``benchmarks/conftest.py``) and the CLI's ``--record-bench`` both
normalize and merge points through this module, so the two writers can
never drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.util.atomic import atomic_write_text

#: Every trajectory point carries exactly these keys; metrics a run did
#: not measure are explicit ``None``, never absent.
POINT_FIELDS = (
    "scenario", "algorithm", "served", "wall_s", "workers", "scale",
    "speedup", "subsets_evaluated", "subsets_bound_skipped",
    "context_build_s", "bound_pass_ms", "gain_matrix_ms", "peak_rss_mb",
)

#: Default trajectory file: ``BENCH_approx.json`` at the repo root.
TRAJECTORY_PATH = Path(__file__).resolve().parents[3] / "BENCH_approx.json"


def normalize_point(point: dict) -> dict:
    """Project ``point`` onto the full schema, keeping unknown extras
    (after the canonical columns) so the schema can grow."""
    out = {name: point.get(name) for name in POINT_FIELDS}
    for key, value in point.items():
        if key not in out:
            out[key] = value
    return out


def make_point(scenario: str, algorithm: str, served: int, wall_s: float,
               workers: int = 1, scale: str = "bench",
               **extra: object) -> dict:
    """One normalized point."""
    return normalize_point({
        "scenario": scenario, "algorithm": algorithm, "served": int(served),
        "wall_s": round(float(wall_s), 4), "workers": int(workers),
        "scale": scale, **extra,
    })


def _point_key(point: dict) -> tuple:
    return (point.get("scenario"), point.get("algorithm"),
            point.get("workers"), point.get("scale"))


def merge_points(existing: list, new: list) -> list:
    """``existing`` updated by ``new``: a point replaces an earlier one
    with the same ``(scenario, algorithm, workers, scale)`` key and
    appends otherwise."""
    merged = {_point_key(p): normalize_point(p) for p in existing}
    for point in new:
        merged[_point_key(point)] = normalize_point(point)
    return list(merged.values())


def load_trajectory_points(path: "str | Path" = TRAJECTORY_PATH) -> list:
    """Points on disk; tolerates a missing, empty, or corrupt file (a
    merge must never block a flush)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return []
    points = data.get("points") if isinstance(data, dict) else None
    return points if isinstance(points, list) else []


def write_trajectory(points: list,
                     path: "str | Path" = TRAJECTORY_PATH) -> Path:
    """Merge ``points`` into the trajectory file (atomic write)."""
    path = Path(path)
    merged = merge_points(load_trajectory_points(path), points)
    atomic_write_text(path, json.dumps({"points": merged}, indent=2) + "\n")
    return path


def record_trajectory_point(
    scenario: str, algorithm: str, served: int, wall_s: float,
    workers: int = 1, scale: str = "bench",
    path: "str | Path" = TRAJECTORY_PATH, **extra: object,
) -> Path:
    """Merge one measured point into the trajectory file."""
    return write_trajectory(
        [make_point(scenario, algorithm, served, wall_s, workers, scale,
                    **extra)], path,
    )
