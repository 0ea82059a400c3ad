"""End-to-end benchmark runner.

    python3 benchmarks/e2e/run.py [--workload NAME|all] [--seed S]
        [--seconds RUN_SECONDS] [--trace 0|1] [--out results.json]
        [--spans FILE]

Closed loop, one client: each (workload, round) runs in a fresh child
process (``child.py``), one child at a time, and each child issues its
tasks one after another.  A run is three interleaved rounds: every
workload's first round, then every second round, then every third.  A
workload's rounds share the manifest's ``run_seconds`` between them, and
a round starts no task it expects to end more than half a task past its
share.  Task ``i`` of a
run with ``--seed S`` solves scenario seed ``1000 S + i``, so the same
seed always gives the same inputs, and two seeds never share one.  Each
round is preceded by two children that only set up, so a run measures
set-up nine times.

Every task, and every set-up, is followed by the reference loop, fixed
pure-Python work.  Times are reported scaled by the reference loop's
nominal time over its measured time around them: the time at the machine
speed at which the loop takes ``REFERENCE_LOOP_S``.  Scaled times are the
gated timings, because the shared host's speed swings by up to 1.6x over
seconds (see README.md).

With ``--trace 0`` every end-to-end metric of ``BENCHMARK.json`` is
printed by name with its unit and bound; with ``--trace 1`` the tasks run
under the outside-in tracer (``tracing.py``) and every per-layer metric is
printed instead, and the spans are written as JSON.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is non-zero when any task fails its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
INPUTS = HERE / "inputs"
ROUNDS = 3
#: Children per round that only set up, before the one that runs tasks.
SETUP_ONLY = 2
#: A run, of one workload or of all of them, must end within this many
#: seconds; each child is stopped at what is left.  A full set takes
#: about 120 s.
DEADLINE_S = 170.0
#: Scenario seeds per ``--seed``; no run gets near this many tasks.
MAX_TASKS = 1000
#: Largest tolerated miss between summed self times and task wall time.
RECONCILE_TOLERANCE = 0.05
#: Children get one BLAS thread: the program's matrix products are small,
#: and a second OpenBLAS thread measured no faster on a 2-core VM while its
#: pool start-up added ~80 ms to set-up and its contention for the other
#: core added noise to every task.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
#: The reference loop's two parts: integer additions, and AND plus
#: popcount over pairs of 3000-bit integers (the width of the program's
#: user bitsets at n=3000).
REFERENCE_ADDS = 250_000
REFERENCE_WORDS = tuple(random.Random(0).getrandbits(3000) for _ in range(64))
REFERENCE_PAIR_ROUNDS = 40
#: The loop's time at the reference speed: about its median on the 2-core
#: VM the benchmark was written on, where it took 6-16 ms.
REFERENCE_LOOP_S = 0.010
#: Median task wall time, unscaled: kept with the metrics, never gated.
WALL = "task_wall_s_p50"


def load_manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def scenario_seed(seed: int, task: int) -> int:
    """``--seed S`` owns the scenario seeds ``[1000 S, 1000 S + 999]``."""
    if not 0 <= task < MAX_TASKS:
        raise ValueError(f"task {task} outside [0, {MAX_TASKS})")
    return seed * MAX_TASKS + task


def reference_loop_s() -> float:
    """The reference loop's time now: the geometric mean of its two parts'
    times.  Host slow-downs hit the two parts unequally, and their mean
    tracked the program's task times more closely than either part."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ADDS):
        total += i
    middle = time.perf_counter()
    pairs = REFERENCE_WORDS[:8]
    for _ in range(REFERENCE_PAIR_ROUNDS):
        for a in REFERENCE_WORDS:
            for b in pairs:
                total += (a & b).bit_count()
    return math.sqrt((middle - start) * (time.perf_counter() - middle))


def reference_s(seconds: float, loop_s: float) -> float:
    """A time measured while the reference loop took ``loop_s``, at the
    reference speed."""
    return seconds * REFERENCE_LOOP_S / loop_s


def run_child(job: dict, deadline: float) -> dict:
    """One child process; a crash or timeout fails the task it was on and
    uses up the round's share of the run."""
    # A fixed string hash gives every child the same dict and set layouts.
    env = dict(os.environ, PYTHONHASHSEED="0", **ONE_THREAD)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    job = dict(job, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 0.1),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        error = proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = "child timed out"
    task = job["first_task"]
    return {"elapsed_s": job["budget_s"], "tasks": [{
        "task": task, "seed": scenario_seed(job["seed"], task), "ok": False,
        "error": error,
    }]}


def pool(children: list, trace: bool) -> dict:
    """One workload's run record from its children's results."""
    tasks = [t for child in children for t in child["tasks"]]
    ok = [t for t in tasks if t["ok"]]
    setups = [reference_s(c["setup_s"], c["setup_loop_s"])
              for c in children if "setup_s" in c]
    rss = [c["peak_rss_mb"] for c in children if "peak_rss_mb" in c]
    record = {
        "attempted": len(tasks),
        "failed": len(tasks) - len(ok),
        "errors": sorted({t["error"] for t in tasks if not t["ok"]}),
        "served": sum(t["served"] for t in ok),
        "task_served": {str(t["seed"]): t["served"] for t in ok},
        "task_digests": {str(t["seed"]): t["digest"] for t in ok},
        "metrics": {},
        "children": [
            {"setup_s": c.get("setup_s"), "setup_loop_s": c.get("setup_loop_s"),
             "peak_rss_mb": c.get("peak_rss_mb"), "elapsed_s": c["elapsed_s"],
             "walls_s": [t["wall_s"] for t in c["tasks"] if t["ok"]],
             "loops_s": [t["loop_s"] for t in c["tasks"] if t["ok"]]}
            for c in children
        ],
    }
    if ok:
        record["metrics"] = {
            "setup_s": statistics.median(setups),
            "task_ref_s_p50": statistics.median(
                reference_s(t["wall_s"], t["loop_s"]) for t in ok
            ),
            "served_ratio": statistics.fmean(t["ratio"] for t in ok),
            "peak_rss_mb": max(rss),
            WALL: statistics.median(t["wall_s"] for t in ok),
        }
    if trace and ok:
        import tracing

        spans = []
        for child in children:
            offset = len(spans)
            for name, start, end, parent, task, attrs in child.get(
                "spans", ()
            ):
                spans.append(tracing.Span(
                    name, start, end, parent + offset if parent >= 0 else -1,
                    task, attrs,
                ))
        # A crashed child left no spans and no task times.
        walls = {t["task"]: t["wall_s"] for t in tasks if "wall_s" in t}
        cost = statistics.median(
            c["span_cost_s"] for c in children if "span_cost_s" in c
        )
        record["layers"], record["reconcile_error"] = tracing.layer_metrics(
            spans, walls, cost
        )
        record["spans"] = [span.to_list() for span in spans]
    return record


def fmt(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def workload_digest(task_digests: dict) -> str:
    """sha256 over the task digests in scenario-seed order: one line to
    eyeball; ``compare.py`` checks the task digests themselves."""
    ordered = [task_digests[s] for s in sorted(task_digests, key=int)]
    return hashlib.sha256("".join(ordered).encode()).hexdigest()


def report(name: str, record: dict, manifest: dict, trace: bool) -> None:
    n = record["attempted"]
    print(f"== {name}: {n} tasks in {ROUNDS} rounds, "
          f"{record['failed']} failed, served {record['served']}, "
          f"digest {workload_digest(record['task_digests'])[:16]}")
    for error in record["errors"]:
        print("   error: " + error.strip().splitlines()[-1])
    if trace:
        if "layers" not in record:
            return
        for metric in manifest["per_layer"]:
            value = record["layers"][metric["name"]]
            if value:
                print(f"   {metric['name']:<42} {fmt(value):>10} "
                      f"{metric['unit']}")
        print("   self times + unattributed vs task wall: worst miss "
              f"{record['reconcile_error']:.2%}")
        return
    for metric in manifest["end_to_end"]:
        value = record["metrics"].get(metric["name"])
        if value is not None:
            print(f"   {metric['name']:<15} {fmt(value):>10} "
                  f"{metric['unit']:<9} ({metric['better']} is better, "
                  f"bound {metric['bound']:.0%})")
    if WALL in record["metrics"]:
        print(f"   {WALL:<15} {fmt(record['metrics'][WALL]):>10} "
              "s         (wall time at the machine's speed; not gated)")


def append_result(path: Path, run: dict) -> None:
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"].append(run)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data, indent=1) + "\n")
    tmp.replace(path)


def parse_args(argv: list, manifest: dict) -> argparse.Namespace:
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    # Not a knob: callers state the run length on the command line, and
    # it must be the manifest's, so every run measures the same time.
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"],
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append this run's record to a results file")
    parser.add_argument("--spans", type=Path,
                        help="where a traced run writes its spans "
                        "(default: out/spans-<workload>-seed<S>.json)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds != manifest["run_seconds"]:
        parser.error(f"--seconds must be {manifest['run_seconds']}, the "
                     "run_seconds of BENCHMARK.json")
    args.names = names if args.workload == "all" else [args.workload]
    return args


def main(argv: list) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    manifest = load_manifest()
    args = parse_args(argv, manifest)
    deadline = time.monotonic() + DEADLINE_S
    children: dict = {name: [] for name in args.names}
    for r in range(ROUNDS):
        for name in args.names:
            done = children[name]
            used = sum(c["elapsed_s"] for c in done)
            job = {"workload": name, "seed": args.seed,
                   "first_task": sum(len(c["tasks"]) for c in done),
                   "trace": args.trace}
            for _ in range(SETUP_ONLY):
                done.append(run_child(dict(job, budget_s=0.0), deadline))
            done.append(run_child(dict(
                job, budget_s=(manifest["run_seconds"] - used) / (ROUNDS - r)
            ), deadline))

    trace = bool(args.trace)
    records = {name: pool(children[name], trace) for name in args.names}
    for name, record in records.items():
        report(name, record, manifest, trace)

    spans = {name: records[name].pop("spans", []) for name in args.names}
    if trace:
        path = args.spans or HERE / "out" / (
            f"spans-{args.workload}-seed{args.seed}.json"
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spans) + "\n")
        print(f"spans written to {path}")
    if args.out is not None:
        append_result(args.out, {
            "seed": args.seed, "trace": args.trace, "workloads": records,
        })

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    reconciled = all(
        r.get("reconcile_error", 0.0) <= RECONCILE_TOLERANCE
        for r in records.values()
    )
    kind = "per_layer" if trace else "end_to_end"
    metrics = {}
    for name, record in records.items():
        values = record.get("layers", {}) if trace else record["metrics"]
        for metric in manifest[kind]:
            if metric["name"] in values:
                key = metric["name"] if len(records) == 1 \
                    else f"{name}:{metric['name']}"
                metrics[key] = {"value": values[metric["name"]],
                                "unit": metric["unit"]}
    correct = failed == 0 and reconciled
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
