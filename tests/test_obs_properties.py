"""Property tests hardening ``repro.obs``.

Four invariants the observability layer must never lose:

* span balance — however instrumented code exits (returns, raises,
  nests), every entered span is closed and recorded; no open span
  survives, including when a ``progress`` callback aborts ``approAlg``
  mid-run, serial or pooled;
* engine equivalence — identical seeds yield bit-identical metric
  counters serial vs ``workers=N`` (counter merging is commutative
  addition of worker deltas, so chunking must not show through);
* record round-trip — ``write_record`` → ``read_record`` is lossless
  for any JSON-safe header, and a record written by any of ``--trace``,
  ``--timeline`` or ``--archive`` reads through every consumer;
* disabled means free — with observability off, nothing is recorded and
  the span helper returns the shared no-op singleton.
"""

from __future__ import annotations

import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.approx import appro_alg
from repro.workload.scenarios import paper_scenario


class _Boom(Exception):
    pass


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# -- span balance ------------------------------------------------------------

# A random call tree: (children, raises_after_children).
_trees = st.recursive(
    st.booleans().map(lambda r: ([], r)),
    lambda kids: st.tuples(st.lists(kids, max_size=3), st.booleans()),
    max_leaves=12,
)


def _execute(node, entered: list, depth: int = 0) -> None:
    children, raises = node
    with obs.span(f"node-d{depth}", raises=raises):
        entered.append(depth)
        for child in children:
            _execute(child, entered, depth + 1)
        if raises:
            raise _Boom()


@given(tree=_trees)
@settings(max_examples=60, deadline=None)
def test_spans_balance_under_arbitrary_exceptions(tree):
    obs.enable()
    obs.reset()
    entered: list = []
    try:
        _execute(tree, entered)
    except _Boom:
        pass
    assert obs.open_span_count() == 0, "an exception leaked an open span"
    spans = obs.drain_spans()
    obs.disable()
    assert len(spans) == len(entered), "every entered span must be recorded"
    # Any span the exception escaped through carries the error marker.
    for s in spans:
        assert s.error in (None, "_Boom")
    if any(raises for _, raises in _flatten(tree)):
        if entered:  # the raise happened inside at least the root span
            assert any(s.error == "_Boom" for s in spans)


def _flatten(node):
    children, raises = node
    yield node, raises
    for child in children:
        yield from _flatten(child)


def test_traced_decorator_balances_on_exception():
    @obs.traced("boomer")
    def boomer():
        raise _Boom()

    obs.enable()
    with pytest.raises(_Boom):
        boomer()
    assert obs.open_span_count() == 0
    (span,) = obs.drain_spans()
    assert span.name == "boomer" and span.error == "_Boom"


class _Abort(Exception):
    """Raised from a progress callback to stop a solve partway."""


@pytest.mark.timeout_guard(180)
def test_spans_balance_under_mid_solve_abort():
    """An exception raised from approAlg's ``progress`` callback partway
    through the enumeration — serial, and from the parent between pooled
    chunks — must not leave the approx spans open; every span it escaped
    through records it as its error."""
    problem = paper_scenario(num_users=120, num_uavs=4, scale="small", seed=2)

    def abort(done, total):
        if done:
            raise _Abort(f"stopped after {done}/{total} subsets")

    for workers in (1, 2):
        obs.reset()
        obs.enable()
        with pytest.raises(_Abort):
            appro_alg(problem, s=2, gain_mode="fast", workers=workers,
                      progress=abort)
        assert obs.open_span_count() == 0, workers
        spans = obs.drain_spans()
        obs.disable()
        aborted = [s for s in spans if s.error == "_Abort"]
        assert aborted, workers
        assert any(s.name == "approx.enumerate" for s in aborted), workers


# -- engine equivalence ------------------------------------------------------


@pytest.mark.timeout_guard(180)
def test_metric_counts_identical_serial_vs_parallel():
    """Same seed, same counters, same span count — workers=1 vs workers=4,
    with a live sampler running over both.

    approx.* totals are incremented parent-side from the merged stats and
    worker-side greedy/flow counters merge by commutative addition, so the
    chunking of the subset enumeration must be invisible in the metrics.
    The sampler only *reads* counters (per-worker utilization lands in
    gauges, which are legitimately worker-dependent), so sampling
    concurrently with either run must not break the equality.
    """
    problem = paper_scenario(num_users=130, num_uavs=4, scale="small", seed=3)

    def observed_run(workers: int):
        obs.enable()
        obs.reset()
        heartbeat = io.StringIO()
        # One sampler renders the heartbeat and fills the ring — its
        # final snapshot must carry the same cumulative counters for any
        # worker count.
        live = obs.Sampler(
            obs.SamplerConfig(interval_s=0.02, stall_intervals=10**6),
            progress=heartbeat,
        )
        with live:
            result = appro_alg(
                problem, s=2, gain_mode="exact", workers=workers
            )
        assert "[live]" in heartbeat.getvalue()
        assert len(live) == live.samples_taken > 0
        counters = dict(obs.metrics_snapshot()["counters"])
        spans = obs.drain_spans()
        obs.disable()
        obs.reset()
        return result, counters, len(spans), live.snapshots()[-1]

    serial, serial_counts, serial_spans, serial_snap = observed_run(workers=1)
    parallel, parallel_counts, parallel_spans, parallel_snap = observed_run(
        workers=4
    )

    assert (serial.served, serial.anchors) == (parallel.served, parallel.anchors)
    assert serial_counts == parallel_counts
    assert serial_spans == parallel_spans
    # Timeline determinism: the closing snapshot equals the final registry
    # state on both sides, so chunked parallel absorption is invisible in
    # the recorded series' end state too.
    assert serial_snap["counters"] == serial_counts
    assert parallel_snap["counters"] == parallel_counts
    # The parallel timeline additionally carries per-worker utilization
    # gauges; every absorbed chunk is attributed to some worker pid (a
    # handful of subsets can be finished parent-side, so <=, not ==).
    assert parallel_snap["workers"]
    assert 0 < sum(parallel_snap["workers"].values()) <= parallel_counts[
        "approx.subsets_done"
    ]
    assert serial_counts["approx.subsets_evaluated"] > 0
    assert serial_counts["greedy.oracle_calls"] > 0
    assert serial_counts["flow.try_opens"] > 0
    # Live-progress counters: every planned subset was accounted done,
    # identically on both sides.
    assert serial_counts["approx.subsets_planned"] > 0
    assert (serial_counts["approx.subsets_done"]
            == serial_counts["approx.subsets_planned"])


# -- record round-trip -------------------------------------------------------

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
)
_config_dicts = st.dictionaries(st.text(max_size=10), _scalars, max_size=5)


@given(
    command=st.text(min_size=1, max_size=15),
    seed=st.none() | st.integers(min_value=0, max_value=2**31),
    algorithm=st.none() | st.text(max_size=15),
    spec=st.none() | _config_dicts,
    config=_config_dicts,
    exit_code=st.none() | st.integers(min_value=0, max_value=255),
    wall_s=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    dropped=st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=40, deadline=None)
def test_manifest_jsonl_roundtrip(
    command, seed, algorithm, spec, config, exit_code, wall_s, dropped
):
    record = obs.RunRecord(
        command=command, spec=spec, seed=seed, algorithm=algorithm,
        config=config, git_rev="abc1234", wall_s=wall_s,
        exit_code=exit_code, created_unix=1700000000.0,
        interval_s=0.5, dropped=dropped,
        metrics={"counters": {"x": 1}, "gauges": {}, "histograms": {}},
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        obs.write_record(path, record)
        data = obs.read_record(path)
    assert data == record
    assert data.spans == [] and data.timeline == []


def test_trace_file_roundtrips_real_spans(tmp_path):
    obs.enable()
    with obs.span("outer", label="x"):
        with obs.span("inner"):
            obs.counter_inc("touched")
    spans = obs.drain_spans()
    metrics = obs.metrics_snapshot()
    obs.disable()

    record = obs.build_record("test", wall_s=0.1, exit_code=0, spans=spans,
                              metrics=metrics, seed=7)
    path = obs.write_record(tmp_path / "t.jsonl", record)
    data = obs.read_record(path)
    assert [s["name"] for s in data.spans] == ["outer", "inner"]
    assert [s["depth"] for s in data.spans] == [0, 1]
    assert data.spans == sorted(
        (s.to_dict() for s in spans), key=lambda r: r["index"]
    )
    assert data.metrics["counters"] == {"touched": 1}

    chrome = obs.chrome_trace(data.spans)
    assert len(chrome["traceEvents"]) == 2
    assert all(e["ph"] == "X" for e in chrome["traceEvents"])


def test_read_trace_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "mystery", "x": 1}\n')
    with pytest.raises(ValueError, match="mystery"):
        obs.read_record(path)
    path.write_text('{"type": "header", "schema": 2, "command": "run"}\n'
                    '{"type": "mystery"}\n')
    with pytest.raises(ValueError, match="mystery"):
        obs.read_record(path)


@given(flag=st.sampled_from(["trace", "timeline", "archive"]),
       other=st.sampled_from(["trace", "timeline", "archive"]))
@settings(max_examples=6, deadline=None)
def test_one_format_reads_through_every_consumer(flag, other):
    """A record written by any flag renders in trace-report (with a
    Chrome export), runs show and perf-diff, and runs compare accepts a
    pair made by any two flags (archive ids and paths mixed)."""
    import contextlib

    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = ["--root", str(root / "runs")]

        def produce(which: str) -> "tuple[str, Path]":
            """(the ref runs show/compare take, the record's path)"""
            path = root / f"{which}-{len(list(root.glob('*.jsonl')))}.jsonl"
            out = ["--archive", "--archive-root", str(root / "runs")] if (
                which == "archive") else [f"--{which}", str(path)]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["run", "--users", "40", "--uavs", "3",
                             "--scale", "small", "--seed", "1", *out]) == 0
            if which != "archive":
                return str(path), path
            run_id = obs.RunArchive(root / "runs").list_runs()[-1]["id"]
            return run_id, root / "runs" / run_id

        (first, path), (second, _) = produce(flag), produce(other)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["trace-report", str(path), "--chrome",
                         str(root / "c.json")]) == 0
            assert main(["runs", "show", first, *runs]) == 0
            assert main(["perf-diff", str(path), str(path)]) == 0
            assert main(["runs", "compare", first, second, *runs,
                         "--threshold", "100"]) == 0
        text = out.getvalue()
        assert "scenario: cli-run (scale=small, users=40, uavs=3)" in text
        assert "kernel timings" in text and "runs compare" in text
        assert json.loads((root / "c.json").read_text())["traceEvents"]


# -- disabled means free -----------------------------------------------------


def test_disabled_records_nothing():
    assert not obs.is_enabled()
    null = obs.span("anything", attr=1)
    assert obs.span("other") is null, "disabled span() must be a singleton"
    with obs.span("quiet"):
        obs.counter_inc("never")
        obs.observe("never.hist", 1.0)
        obs.gauge_set("never.gauge", 2.0)
    assert obs.open_span_count() == 0
    assert obs.snapshot_spans() == []
    snap = obs.metrics_snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}
    assert obs.export_obs_state() is None


def test_disabled_overhead_guard_full_solver():
    """Flight-recorder guard: a real solve with every obs feature off
    leaves zero footprint — no spans, no metrics, no profiler/timeline/
    reporter thread, no tracemalloc, and the watermark helper still
    hands out the shared no-op singleton."""
    import threading
    import tracemalloc

    from repro.obs import profile as prof
    from repro.obs.sampler import THREAD_NAME

    problem = paper_scenario(num_users=120, num_uavs=4, scale="small", seed=5)
    threads_before = set(threading.enumerate())
    assert not obs.is_enabled()
    assert prof.active() is None

    result = appro_alg(problem, s=2, gain_mode="fast")

    assert result.served > 0
    assert set(threading.enumerate()) == threads_before
    daemon_names = {t.name for t in threading.enumerate()}
    assert not daemon_names & {"repro-profiler", THREAD_NAME}
    assert not tracemalloc.is_tracing()
    assert prof.active() is None
    assert obs.stage_watermark("solve") is prof._NULL_WATERMARK
    assert obs.snapshot_spans() == [] and obs.open_span_count() == 0
    snap = obs.metrics_snapshot()
    assert snap["counters"] == {} and snap["gauges"] == {}
