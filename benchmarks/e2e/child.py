"""One round of one workload, in a fresh process (started by ``run.py``).

Usage: ``python3 child.py '<json>'`` with keys ``workload``, ``seed`` (the
run's ``--seed``), ``first_task`` (the run's index of this round's first
task), ``budget_s`` (this round's share of the run), ``trace`` and
``t_spawn`` (``run.py``'s ``time.monotonic()`` just before it started this
process).  Prints one JSON object as its last stdout line.

Set-up is everything from process start until the first task is ready:
the interpreter, the imports and the pinned inputs; the reference loop
runs three times right after it.  A child with a budget of 0 stops there.
Otherwise each task is timed alone and bracketed by the reference loop;
the correctness gate runs between tasks, outside the timed region.  The
round always runs one task, and starts another only while the time used
so far plus half the last task's (task, gate and loop) fits in the
budget, so that on average a round ends when its budget does.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback


def main(argv: list) -> int:
    job = json.loads(argv[1])
    import run
    import tracing
    import workloads

    workload = workloads.load(job["workload"])
    workload.open()
    tracer = layers = None
    span_cost_s = 0.0
    if job["trace"]:
        span_cost_s = tracing.span_cost()
        tracer = tracing.Tracer()
        layers = tracing.Layers(tracer)
        layers.install()
    setup_s = time.monotonic() - job["t_spawn"]
    setup_loops = [run.reference_loop_s() for _ in range(3)]

    tasks = []
    start = time.perf_counter()
    loop_before = setup_loops[-1]
    task, last = job["first_task"], 0.0
    while job["budget_s"] > 0 and (not tasks or (
        time.perf_counter() - start + last / 2 <= job["budget_s"]
        and task < run.MAX_TASKS
    )):
        begin = time.perf_counter()
        seed = run.scenario_seed(job["seed"], task)
        record = {"task": task, "seed": seed, "ok": False}
        try:
            if tracer is None:
                output = workload.run(seed)
            else:
                tracer.task = task
                output = tracer.call(tracing.ROOT, workload.run, (seed,), {})
            record["wall_s"] = time.perf_counter() - begin
            outcome = workload.check(output)
        except Exception:  # noqa: BLE001 - a failed task is counted, not fatal
            record.setdefault("wall_s", time.perf_counter() - begin)
            record["error"] = traceback.format_exc(limit=-3)
        else:
            record.update(ok=True, served=outcome.served,
                          ratio=outcome.ratio, digest=outcome.digest)
        output = None   # free it before the next task runs
        loop_after = run.reference_loop_s()
        record["loop_s"] = (loop_before + loop_after) / 2
        loop_before = loop_after
        tasks.append(record)
        task += 1
        last = time.perf_counter() - begin
    elapsed_s = time.perf_counter() - start

    if layers is not None:
        layers.restore()
    workload.close()
    result = {
        "setup_s": setup_s,
        "setup_loop_s": statistics.median(setup_loops),
        "elapsed_s": elapsed_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "tasks": tasks,
    }
    if tracer is not None:
        result["span_cost_s"] = span_cost_s
        result["spans"] = [span.to_list() for span in tracer.spans]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
