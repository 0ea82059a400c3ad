"""Summarize one results file, or compare two, metric by metric.

    python3 benchmarks/e2e/compare.py A.json           # summary of A
    python3 benchmarks/e2e/compare.py A.json B.json    # B against A

A results file is what ``run.py --out`` appends to: one record per run.
The comparison pairs the untraced runs of the two files by (workload,
``--seed``).  Both runs of a pair solved the same scenarios, so their
difference holds no scenario-to-scenario variation, only the machine's
noise and the change itself.  For every (workload, end-to-end metric) pair
it prints each side's median and quartiles over the paired runs, the
median paired change, the metric's bound and a verdict:

* ``unresolved`` -- the paired changes' own quartile spread is wider than
  the bound, so a change of that size cannot be told from noise (unless
  every B run beats every A run, which reads ``better``);
* ``worse`` / ``better`` -- the median paired change exceeds the bound;
* ``same`` -- otherwise.

Served users are judged exactly, with bound 0: the program's output is
deterministic for a given scenario, so the ``served`` row, built from every
task's served count, reads ``worse`` if any shared (workload, scenario
seed) task serves fewer users.  ``served_ratio`` is judged against its
bound like the timings, because two runs of one seed may hold different
numbers of tasks: a run stops after ``run_seconds``.

There is one row per workload and no combined score.  Task digests are
compared wherever both files ran the same (workload, scenario seed); any
difference means the two sides produced different deployments.  The exit
code is 1 when a pair is ``worse`` or a digest differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import WALL, load_manifest


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(pairs: list, better: str, bound: float) -> str:
    """Verdict on (A, B) value pairs measured on the same inputs."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = [sign * (b - a) / a for a, b in pairs]
    q1, median, q3 = quartiles(worse_by)
    if q3 - q1 > bound:
        a, b = [p[0] for p in pairs], [p[1] for p in pairs]
        beats_all = (max(b) < min(a)) if better == "lower" \
            else (min(b) > max(a))
        return "better" if beats_all else "unresolved"
    if median > bound:
        return "worse"
    if median < -bound:
        return "better"
    return "same"


def exact_verdict(pairs: list, better: str) -> str:
    """Bound 0: any pair that is worse makes the verdict ``worse``."""
    sign = 1.0 if better == "lower" else -1.0
    if any(sign * (b - a) > 0 for a, b in pairs):
        return "worse"
    if any(sign * (b - a) < 0 for a, b in pairs):
        return "better"
    return "same"


def metric_values(results: dict, trace: int, kind: str = "metrics") -> dict:
    """{(workload, metric): [value per run]} over runs of one trace mode."""
    out: dict = {}
    for run in results["runs"]:
        if run["trace"] != trace:
            continue
        for workload, record in run["workloads"].items():
            for name, value in record.get(kind, {}).items():
                out.setdefault((workload, name), []).append(value)
    return out


def seed_values(results: dict) -> dict:
    """{(workload, metric): {seed: median over that seed's untraced runs}}."""
    runs: dict = {}
    for run in results["runs"]:
        if run["trace"]:
            continue
        for workload, record in run["workloads"].items():
            for name, value in record["metrics"].items():
                runs.setdefault((workload, name), {}).setdefault(
                    run["seed"], []
                ).append(value)
    return {key: {seed: statistics.median(values)
                  for seed, values in by_seed.items()}
            for key, by_seed in runs.items()}


def per_task(results: dict, field: str) -> dict:
    """{(workload, scenario seed): value} of a per-task field over every
    run in the file (``task_digests`` or ``task_served``)."""
    out = {}
    for run in results["runs"]:
        for workload, record in run["workloads"].items():
            for seed, value in record[field].items():
                out[(workload, seed)] = value
    return out


def workloads_in(values: dict) -> list:
    return list(dict.fromkeys(workload for workload, _ in values))


def summarize(results: dict, manifest: dict) -> None:
    values = metric_values(results, 0)
    wall = {"name": WALL, "unit": "s", "bound": None}
    for workload in workloads_in(values):
        print(f"== {workload}")
        for metric in manifest["end_to_end"] + [wall]:
            runs = values.get((workload, metric["name"]))
            if not runs:
                continue
            q1, med, q3 = quartiles(runs)
            bound = "not gated" if metric["bound"] is None \
                else f"bound {metric['bound']:.0%}"
            print(f"   {metric['name']:<15} median {med:<10.4g} "
                  f"quartiles [{q1:.4g}, {q3:.4g}] spread "
                  f"{(q3 - q1) / med:6.2%} ({bound}, "
                  f"{len(runs)} runs) {metric['unit']}")
    layers = metric_values(results, 1, "layers")
    traced = metric_values(results, 1)
    for workload in workloads_in(layers):
        print(f"== {workload} (traced, median over "
              f"{len(layers[(workload, 'trace.overhead')])} runs)")
        for metric in manifest["per_layer"]:
            value = statistics.median(layers[(workload, metric["name"])])
            if value:
                print(f"   {metric['name']:<42} {value:10.4g} {metric['unit']}")
        untraced = values.get((workload, "task_ref_s_p50"))
        if untraced and (workload, "task_ref_s_p50") in traced:
            ratio = statistics.median(traced[(workload, "task_ref_s_p50")]) \
                / statistics.median(untraced)
            print(f"   traced task_ref_s_p50 / untraced: {ratio:.3f}")


def row(workload: str, name: str, pairs: list, bound: str,
        result: str) -> None:
    a_q1, a_med, a_q3 = quartiles([a for a, _ in pairs])
    b_q1, b_med, b_q3 = quartiles([b for _, b in pairs])
    changes = [(b - a) / a for a, b in pairs if a]
    change = statistics.median(changes) if changes else 0.0
    print(f"{workload:<21} {name:<14} {len(pairs):>5} "
          f"{f'{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]':<34} "
          f"{f'{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]':<34} "
          f"{change:>+8.2%} {bound:>6}  {result}")


def compare(a: dict, b: dict, manifest: dict) -> int:
    a_values, b_values = seed_values(a), seed_values(b)
    a_served, b_served = per_task(a, "task_served"), per_task(b, "task_served")
    failed = False
    print(f"{'workload':<21} {'metric':<14} {'pairs':>5} "
          f"{'A median [q1, q3]':<34} {'B median [q1, q3]':<34} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in workloads_in(a_values):
        for metric in manifest["end_to_end"]:
            key = (workload, metric["name"])
            seeds = sorted(
                set(a_values.get(key, ())) & set(b_values.get(key, ()))
            )
            if not seeds:
                continue
            pairs = [(a_values[key][s], b_values[key][s]) for s in seeds]
            result = verdict(pairs, metric["better"], metric["bound"])
            failed |= result == "worse"
            row(workload, metric["name"], pairs, f"{metric['bound']:.0%}",
                result)
        tasks = sorted(key for key in set(a_served) & set(b_served)
                       if key[0] == workload)
        if tasks:
            pairs = [(a_served[key], b_served[key]) for key in tasks]
            result = exact_verdict(pairs, "higher")
            failed |= result == "worse"
            row(workload, "served", pairs, "0", result)
    a_digests = per_task(a, "task_digests")
    b_digests = per_task(b, "task_digests")
    shared = sorted(set(a_digests) & set(b_digests))
    differ = [key for key in shared if a_digests[key] != b_digests[key]]
    for workload, seed in differ:
        print(f"DIGEST DIFFERS: {workload} scenario seed {seed}")
    print(f"digests: {len(shared) - len(differ)} of {len(shared)} shared "
          "tasks identical")
    return 1 if failed or differ else 0


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(p).read_text()) for p in argv]
    manifest = load_manifest()
    if len(files) == 1:
        summarize(files[0], manifest)
        return 0
    return compare(files[0], files[1], manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
