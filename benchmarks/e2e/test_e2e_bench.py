"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import compare
import run
import tracing
import workloads
from repro.core.context import SolverContext
from repro.dynamics import DynamicSpec, WorldState
from repro.dynamics.spec import DYNAMIC_PRESETS
from repro.network.validate import ValidationError
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec

MANIFEST = run.load_manifest()
PER_LAYER = {m["name"] for m in MANIFEST["per_layer"]}
END_TO_END = {m["name"] for m in MANIFEST["end_to_end"]}

#: One small input per entry point; the tiled cell spec reaches the
#: build, aggregate, carve and stitch layers in well under a second.
TINY = {
    "pipeline": {"entry": "pipeline", "spec": ScenarioSpec(
        name="tiny", scale="small", num_users=200, num_uavs=4,
        aggregation="cells", cell_size_m=100.0, tiles="2x1",
        tile_overlap_m=100.0, algorithm_params={"s": 1, "gain_mode": "fast"},
    ).to_dict()},
    "run_dynamic": {"entry": "run_dynamic", "spec": DYNAMIC_PRESETS[
        "dynamic-small"
    ].with_overrides(duration_s=150.0).to_dict()},
}


def test_pinned_inputs_load_and_match_the_manifest():
    names = [w["name"] for w in MANIFEST["workloads"]]
    pinned = sorted(p.stem for p in run.INPUTS.glob("*.json"))
    assert sorted(names) == pinned
    for name in names:
        doc = json.loads((run.INPUTS / f"{name}.json").read_text())
        if doc["entry"] == "run_dynamic":
            assert DynamicSpec.from_dict(doc["spec"]).to_dict() == doc["spec"]
        else:
            assert doc["entry"] == "pipeline"
            spec = ScenarioSpec.from_json(json.dumps(doc["spec"]))
            assert spec.to_dict() == doc["spec"]
        assert isinstance(workloads.load(name), workloads.ENTRIES[doc["entry"]])


def _callables() -> dict:
    """Identity of everything the tracer or a workload may replace."""
    state = {}
    for module in tracing._repro_modules():
        for name, value in vars(module).items():
            if callable(value):
                state[(module.__name__, name)] = value
    for cls in (ScenarioSpec, SolvePipeline, SolverContext, WorldState):
        for name, value in vars(cls).items():
            state[(cls.__qualname__, name)] = value
    return state


def _changed(before: dict, after: dict) -> list:
    return [key for key, value in before.items()
            if value is not after.get(key)]


@pytest.mark.parametrize("entry", sorted(TINY))
def test_traced_task_matches_untraced_and_is_restored(entry):
    before = _callables()
    workload = workloads.ENTRIES[entry](TINY[entry])
    workload.open()
    try:
        plain = workload.check(workload.run(11))
        tracer = tracing.Tracer()
        layers = tracing.Layers(tracer)
        layers.install()
        try:
            tracer.task = 0
            start = time.perf_counter()
            output = tracer.call(tracing.ROOT, workload.run, (11,), {})
            wall = time.perf_counter() - start
        finally:
            layers.restore()
        traced = workload.check(output)
    finally:
        workload.close()
    assert _changed(before, _callables()) == []
    assert (traced.served, traced.digest) == (plain.served, plain.digest)
    metrics, error = tracing.layer_metrics(tracer.spans, {0: wall}, 1e-6)
    assert set(metrics) == PER_LAYER
    assert error <= run.RECONCILE_TOLERANCE
    assert metrics["core.appro_alg.calls"] >= 1
    assert metrics["core.optimal_assignment.calls"] >= 1


def test_check_rejects_an_infeasible_deployment():
    workload = workloads.ENTRIES["pipeline"]({"spec": ScenarioSpec(
        name="tiny-users", scale="small", num_users=200, num_uavs=4,
        algorithm_params={"s": 1, "gain_mode": "fast"},
    ).to_dict()})
    state = workload.run(11)
    workload.check(state)
    uav = next(iter(state.deployment.placements))
    state.deployment = type(state.deployment)(
        placements=state.deployment.placements,
        assignment={user: uav for user in range(state.problem.num_users)},
    )
    with pytest.raises(ValidationError):
        workload.check(state)


def _task(task, wall_s, loop_s):
    return {"task": task, "seed": task, "ok": True, "wall_s": wall_s,
            "loop_s": loop_s, "served": 10, "ratio": 0.5, "digest": "d"}


def test_pool_scales_times_to_the_reference_speed():
    ref = run.REFERENCE_LOOP_S
    slow = 2 * ref                      # the machine ran at half speed
    children = [
        {"setup_s": 0.3, "setup_loop_s": slow, "peak_rss_mb": 50.0,
         "elapsed_s": 4.0,
         "tasks": [_task(0, 1.0, slow), _task(1, 3.0, slow)]},
        {"setup_s": 0.5, "setup_loop_s": ref, "peak_rss_mb": 60.0,
         "elapsed_s": 0.5, "tasks": [_task(2, 0.5, ref)]},
        {"setup_s": 0.4, "setup_loop_s": ref, "peak_rss_mb": 40.0,
         "elapsed_s": 0.0, "tasks": []},            # set-up only
    ]
    metrics = run.pool(children, trace=False)["metrics"]
    assert metrics["task_ref_s_p50"] == pytest.approx(0.5)  # of 0.5, 1.5, 0.5
    assert metrics[run.WALL] == pytest.approx(1.0)           # of 1.0, 3.0, 0.5
    assert metrics["setup_s"] == pytest.approx(0.4)          # of 0.15, 0.5, 0.4
    assert metrics["peak_rss_mb"] == 60.0


def test_a_child_with_no_budget_only_sets_up():
    result = run.run_child({
        "workload": "paper-headline", "seed": 1, "first_task": 0,
        "budget_s": 0.0, "trace": 0,
    }, time.monotonic() + 60)
    assert result["tasks"] == []
    assert result["setup_s"] > 0 and result["setup_loop_s"] > 0


def test_a_crashed_child_fails_its_task_and_uses_its_share():
    result = run.run_child({
        "workload": "no-such-workload", "seed": 2, "first_task": 5,
        "budget_s": 4.0, "trace": 0,
    }, time.monotonic() + 60)
    assert result["elapsed_s"] == 4.0
    [task] = result["tasks"]
    assert (task["task"], task["seed"], task["ok"]) == (5, 2005, False)
    assert "no-such-workload" in task["error"]


def _span(name, start, end, parent=-1, attrs=None):
    return tracing.Span(name, start, end, parent, 0, attrs)


def test_self_times_subtract_the_union_of_children():
    spans = [
        _span("task", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 2.0, 3.0, 1),
        _span("c", 3.5, 6.0, 0),      # overlaps a: counted once
        _span("d", 7.0, 12.0, 0),     # runs past the parent: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 2.5, 5.0])


def test_layer_metrics_pool_calls_self_time_and_solver_stats():
    spans = [
        _span("task", 0.0, 10.0),
        _span("core.appro_alg", 1.0, 9.0, 0, attrs=(10, 4, 6)),
        _span("core.appro_alg", 2.0, 5.0, 1, attrs=(10, 4, 6)),
        _span("core.anchored_greedy", 2.5, 3.0, 2),
        _span("core.anchored_greedy", 6.0, 7.0, 1),
    ]
    metrics, error = tracing.layer_metrics(spans, {0: 10.0}, 0.01)
    assert metrics["core.appro_alg.calls"] == 2
    assert metrics["core.appro_alg.self_s"] == pytest.approx(6.5)
    assert metrics["core.anchored_greedy.self_s"] == pytest.approx(1.5)
    assert metrics["trace.unattributed_s"] == pytest.approx(2.0)
    # Only the outermost appro_alg's stats count.
    assert metrics["core.appro_alg.subsets_evaluated"] == 4
    assert metrics["core.appro_alg.skip_ratio"] == pytest.approx(0.6)
    assert metrics["trace.overhead"] == pytest.approx(5 * 0.01 / 10.0)
    assert error == pytest.approx(0.0)
    assert tracing.layer_metrics(spans, {0: 8.0}, 0.0)[1] == \
        pytest.approx(0.25)


STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


@pytest.mark.parametrize("scale, better, expected", [
    (1.03, "lower", "same"),
    (1.20, "lower", "worse"),
    (0.80, "lower", "better"),
    (0.80, "higher", "worse"),
])
def test_compare_verdicts(scale, better, expected):
    pairs = [(v, v * scale) for v in STEADY]
    assert compare.verdict(pairs, better, 0.10) == expected


def test_compare_pairs_out_scenario_variety():
    # A's runs differ by +-30% from scenario to scenario, but each B run
    # is 5% slower than the A run on the same seed: the change is resolved.
    varied = [0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0, 0.75, 1.25]
    assert compare.verdict([(v, v * 1.05) for v in varied], "lower",
                           0.10) == "same"
    assert compare.verdict([(v, v * 1.15) for v in varied], "lower",
                           0.10) == "worse"


def test_compare_is_unresolved_when_the_paired_spread_exceeds_the_bound():
    noise = [0.8, 1.2, 1.0, 0.85, 1.15, 0.9, 1.1, 1.0, 0.8, 1.2]
    assert compare.verdict([(v, v * f) for v, f in zip(STEADY, noise)],
                           "lower", 0.10) == "unresolved"
    assert compare.verdict([(v, 0.5) for v in STEADY], "lower",
                           0.10) == "better"


def test_exact_verdict_has_bound_zero():
    pairs = [(100, 100), (200, 200), (300, 300)]
    assert compare.exact_verdict(pairs, "higher") == "same"
    assert compare.exact_verdict(pairs + [(400, 399)], "higher") == "worse"
    assert compare.exact_verdict(pairs + [(400, 401)], "higher") == "better"
    assert compare.exact_verdict([(1, 2), (3, 2)], "higher") == "worse"


def _results(digest: str, served: int = 2700) -> dict:
    metrics = {name: 1.0 for name in END_TO_END}
    return {"runs": [{"seed": 1, "trace": 0, "workloads": {
        "paper-headline": {"metrics": metrics,
                           "task_served": {"1000": served},
                           "task_digests": {"1000": digest}},
    }}]}


def test_compare_flags_digest_differences(capsys):
    assert compare.compare(_results("x"), _results("x"), MANIFEST) == 0
    assert compare.compare(_results("x"), _results("y"), MANIFEST) == 1
    assert "DIGEST DIFFERS: paper-headline scenario seed 1000" in \
        capsys.readouterr().out


def test_compare_flags_one_user_fewer_as_worse(capsys):
    assert compare.compare(_results("x"), _results("y", 2699), MANIFEST) == 1
    served = [line for line in capsys.readouterr().out.splitlines()
              if line.split()[1:2] == ["served"]]
    assert len(served) == 1 and served[0].endswith("worse")


def _cli(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [("0", END_TO_END), ("1", PER_LAYER)])
def test_cli_prints_the_result_line(tmp_path, trace, kind):
    spans = tmp_path / "spans.json"
    proc = _cli(run.ROOT, "--workload", "paper-headline", "--seed", "3",
                "--seconds", str(MANIFEST["run_seconds"]), "--trace", trace,
                "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert (line["correct"], line["failed"]) == (True, 0)
    assert line["attempted"] >= run.ROUNDS
    assert set(line["metrics"]) == kind
    assert spans.exists() == (trace == "1")


def test_cli_refuses_another_run_length():
    proc = _cli(run.ROOT, "--workload", "paper-headline", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(tmp_path, "--workload", "paper-headline", "--seed", "1",
                "--seconds", str(MANIFEST["run_seconds"]), "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
