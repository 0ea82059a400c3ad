"""Benchmark-suite fixtures.

Each figure bench registers its per-point results (served users, runtime)
into a session-scoped report; at session end the report prints the same
rows/series the paper's figures show, and merges them into
``benchmarks/out/figures.txt`` for EXPERIMENTS.md (:func:`merge_figure_text`:
the figures that did not run keep their tables).

Environment knobs:

* ``REPRO_BENCH_SCALE`` — scenario scale preset (default "bench"; set
  "paper" for the fine 100-location grid — much slower in pure Python);
* ``REPRO_BENCH_POOL`` — approAlg anchor-candidate pool (default 10; 0
  disables the restriction, reverting to the full O(m^s) enumeration);
* ``REPRO_BENCH_WORKERS`` — worker processes for the engine bench
  (default: the machine's CPU count, capped at 4);
* ``REPRO_BENCH_USERS`` — user count for the engine bench (default 3000;
  CI smoke sets a few hundred);
* ``REPRO_BENCH_ASSERT_SPEEDUP`` — when set, the engine bench *asserts*
  the parallel speedup (use on multi-core runners only).

Besides the figure tables, engine-relevant benches append their
measurements to a session-scoped :class:`PerfTrajectory`; at session end
it is written as machine-readable ``BENCH_approx.json`` at the repo root,
one point per ``{scenario, algorithm, served, wall_s, workers, scale}``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path

import pytest

from repro.obs.bench import load_trajectory_points, make_point, write_trajectory
from repro.util.tables import format_table
from repro.workload.scenarios import paper_scenario

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")
_pool = int(os.environ.get("REPRO_BENCH_POOL", "10"))
ANCHOR_POOL = None if _pool == 0 else _pool
BENCH_WORKERS = int(
    os.environ.get("REPRO_BENCH_WORKERS", min(4, os.cpu_count() or 1))
)
BENCH_USERS = int(os.environ.get("REPRO_BENCH_USERS", "3000"))

OUT_DIR = Path(__file__).parent / "out"
REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_PATH = REPO_ROOT / "BENCH_approx.json"


class FigureReport:
    """Collects (figure, sweep value, algorithm) -> metrics rows."""

    def __init__(self) -> None:
        self.served: dict = defaultdict(dict)   # fig -> (value, alg) -> served
        self.runtime: dict = defaultdict(dict)
        self.titles: dict = {}

    def record(self, fig: str, title: str, sweep_value: object,
               algorithm: str, served: int, runtime_s: float) -> None:
        self.titles[fig] = title
        self.served[fig][(sweep_value, algorithm)] = served
        self.runtime[fig][(sweep_value, algorithm)] = runtime_s

    def table(self, fig: str, metric: str = "served") -> str:
        data = self.served[fig] if metric == "served" else self.runtime[fig]
        values = sorted({v for v, _ in data}, key=lambda x: (str(type(x)), x))
        algorithms = list(dict.fromkeys(alg for _, alg in data))
        headers = ["point"] + algorithms
        rows = []
        for value in values:
            row = [value]
            for alg in algorithms:
                cell = data.get((value, alg))
                row.append("-" if cell is None else cell)
            rows.append(row)
        return format_table(
            headers, rows, title=f"{self.titles[fig]} [{metric}]"
        )

    def dump(self) -> str:
        blocks = []
        for fig in sorted(self.titles):
            blocks.append(self.table(fig, "served"))
            blocks.append(self.table(fig, "runtime"))
        return "\n\n".join(blocks)


class PerfTrajectory:
    """Machine-readable perf points for the appro_alg engine.

    Each point is one measured run: ``scenario`` (a short free-form label
    like ``"fig4:K=20"``), ``algorithm`` (``"approAlg"``,
    ``"approAlg+parallel"``, ``"context-build"``, ...), ``served``,
    ``wall_s``, ``workers``, and ``scale``, normalized to the one point
    schema of :mod:`repro.obs.bench` (extra keys such as ``speedup`` are
    kept).  At session end the points are *merged* into the existing
    ``BENCH_approx.json`` by the same :func:`repro.obs.bench.merge_points`
    the CLI's ``--record-bench`` uses, so running a subset of the benches
    refreshes just those points instead of wiping the rest.
    """

    def __init__(self) -> None:
        self.points: list = []

    def record(self, scenario: str, algorithm: str, served: int,
               wall_s: float, workers: int = 1,
               scale: str = BENCH_SCALE, **extra: object) -> None:
        self.points.append(make_point(
            scenario, algorithm, served, wall_s, workers, scale, **extra
        ))


def merge_figure_text(existing: str, text: str) -> str:
    """The tables of ``text`` (a :meth:`FigureReport.dump`) merged into
    ``existing``: a table whose title line is already there replaces it
    in place, a new one is appended, and every other table is kept."""
    fresh = {block.split("\n", 1)[0]: block for block in text.split("\n\n")}
    kept = [fresh.pop(block.split("\n", 1)[0], block)
            for block in existing.strip().split("\n\n") if block]
    return "\n\n".join(kept + list(fresh.values()))


_report = FigureReport()
_trajectory = PerfTrajectory()


@pytest.fixture(scope="session")
def figure_report() -> FigureReport:
    return _report


@pytest.fixture(scope="session")
def perf_trajectory() -> PerfTrajectory:
    return _trajectory


def pytest_sessionfinish(session, exitstatus):
    if _trajectory.points:
        existing = load_trajectory_points(TRAJECTORY_PATH)
        # Atomic flush: an interrupted bench session must not truncate the
        # accumulated perf history the regression gate reads.
        write_trajectory(_trajectory.points, TRAJECTORY_PATH)
        print(f"\nperf trajectory ({len(_trajectory.points)} points "
              f"recorded, {len(existing)} merged) written to "
              f"{TRAJECTORY_PATH}")
    elif not load_trajectory_points(TRAJECTORY_PATH):
        print(f"\nWARNING: no perf points recorded and {TRAJECTORY_PATH} "
              "is empty or missing — the perf trajectory is NOT flushed "
              "(run benchmarks/test_bench_engine.py)")
    if not _report.titles:
        return
    text = _report.dump()
    print("\n\n===== reproduced figure data =====\n" + text + "\n")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "figures.txt"
    existing = path.read_text() if path.exists() else ""
    path.write_text(merge_figure_text(existing, text) + "\n")


@pytest.fixture(scope="session")
def scenario_cache():
    """Scenario builder with caching so parametrized benches share
    instances (and their warm coverage caches)."""
    cache: dict = {}

    def get(num_users: int, num_uavs: int, seed: int = 7):
        key = (num_users, num_uavs, seed, BENCH_SCALE)
        if key not in cache:
            cache[key] = paper_scenario(
                num_users=num_users,
                num_uavs=num_uavs,
                scale=BENCH_SCALE,
                seed=seed,
            )
        return cache[key]

    return get
