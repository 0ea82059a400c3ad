"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _stub_figure(monkeypatch, figure, sweep):
    """Swap ``repro experiments FIGURE``'s sweep for ``sweep``."""
    import repro.cli as cli

    _, metric, title = cli._FIGURES[figure]
    monkeypatch.setitem(cli._FIGURES, figure, (sweep, metric, title))


class TestCli:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "approAlg" in out
        assert "UAV" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure8"])

    def test_fig4_smoke(self, capsys, monkeypatch):
        """Run fig4 on a stub sweep so the CLI path is covered quickly."""
        from repro.sim.results import RunRecord, SweepResult

        def stub_sweep(**kwargs):
            sweep = SweepResult(name="fig4", sweep_param="K")
            sweep.add(2, RunRecord("approAlg", 42, 0.1, 100, 2))
            return sweep

        _stub_figure(monkeypatch, "fig4", stub_sweep)
        assert main(["experiments", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "42" in out

    def test_fig4_chart_flag(self, capsys, monkeypatch):
        from repro.sim.results import RunRecord, SweepResult

        def stub_sweep(**kwargs):
            sweep = SweepResult(name="fig4", sweep_param="K")
            sweep.add(2, RunRecord("approAlg", 10, 0.1, 100, 2))
            sweep.add(4, RunRecord("approAlg", 30, 0.1, 100, 4))
            return sweep

        _stub_figure(monkeypatch, "fig4", stub_sweep)
        assert main(["experiments", "fig4", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "[chart]" in out
        assert "o=approAlg" in out

    def test_fig6b_prints_runtime(self, capsys, monkeypatch):
        from repro.sim.results import RunRecord, SweepResult

        def stub_sweep(**kwargs):
            sweep = SweepResult(name="fig6", sweep_param="s")
            sweep.add(1, RunRecord("approAlg", 10, 0.25, 100, 4))
            return sweep

        _stub_figure(monkeypatch, "fig6b", stub_sweep)
        assert main(["experiments", "fig6b"]) == 0
        out = capsys.readouterr().out
        assert "running time" in out and "0.25" in out

    def test_anchor_pool_zero_means_unrestricted(self, monkeypatch):
        captured = {}

        def stub_sweep(**kwargs):
            captured.update(kwargs)
            from repro.sim.results import SweepResult
            return SweepResult(name="fig5", sweep_param="n")

        _stub_figure(monkeypatch, "fig5", stub_sweep)
        assert main(["experiments", "fig5", "--anchor-pool", "0"]) == 0
        assert captured["max_anchor_candidates"] is None

    def test_ratio_table(self, capsys):
        assert main(["ratio", "--k", "10", "20", "--s", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "guarantee" in out
        assert "20" in out

    def test_ratio_skips_s_above_k(self, capsys):
        assert main(["ratio", "--k", "2", "--s", "3"]) == 0
        out = capsys.readouterr().out
        # No data row for s > K.
        assert len(out.strip().splitlines()) == 3

    def test_map_runs(self, capsys):
        assert main([
            "map", "--users", "60", "--uavs", "3",
            "--scale", "small", "--cols", "20", "--seed", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "legend" in out
        assert "served" in out

    def test_selfcheck(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all good" in out
        assert "[ok]" in out and "FAIL" not in out

    def test_run_and_save(self, capsys, tmp_path):
        out_file = tmp_path / "dep.json"
        assert main([
            "run", "--users", "80", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--save", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "approAlg: served" in out
        assert out_file.exists()
        from repro.sim.io import load_deployment
        dep = load_deployment(out_file)
        assert dep.num_deployed >= 1

    def test_run_with_report(self, capsys):
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "2", "--report",
        ]) == 0
        out = capsys.readouterr().out
        assert "== coverage ==" in out
        assert "== spectrum ==" in out

    def test_run_from_scenario_file(self, capsys, tmp_path):
        """A document that is not a ScenarioSpec — here the old
        ``kind: scenario`` file — is one error line naming the file and
        its kind, and exit 2."""
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps({
            "format": 1, "kind": "scenario", "seed": 1,
            "config": {"num_users": 50, "num_uavs": 3},
            "workload": {"type": "FatTailedWorkload", "params": {}},
        }))
        assert main([
            "run", "--scenario", str(scenario_file), "--algorithm", "MCS",
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {scenario_file}: expected a scenario-spec document, "
            "got kind = 'scenario'\n"
        )

    def test_mission_smoke(self, capsys):
        """``repro mission`` is ``repro dynamic`` on ``mission-small``."""
        assert main(["mission", "--duration", "60", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "dynamic mission-small:" in out
        assert "event policy" in out
        assert "2 faults" in out

    def test_mission_bad_override_fails_cleanly(self, capsys):
        assert main(["mission", "--duration", "-5"]) == 2
        assert "duration_s must be a positive number" in (
            capsys.readouterr().err
        )

    def test_run_with_trace_and_metrics(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "metrics.json"
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--trace", str(trace),
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace (" in out and "metrics written" in out
        assert not obs.is_enabled(), "the CLI must switch tracing back off"

        data = obs.read_record(trace)
        assert data.command == "run"
        assert data.seed == 4
        assert data.exit_code == 0
        names = {s["name"] for s in data.spans}
        assert "runner.solve" in names and "approx.enumerate" in names
        assert data.metrics["counters"]["approx.runs"] >= 1

        import json
        saved = json.loads(metrics.read_text())
        assert saved["counters"]["runner.solves"] == 1

    def test_trace_report_renders_trace(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        chrome = tmp_path / "chrome.json"
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace-report", str(trace), "--chrome", str(chrome),
        ]) == 0
        out = capsys.readouterr().out
        assert "runner.solve" in out and "counters" in out
        import json
        events = json.loads(chrome.read_text())["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)

    def test_trace_report_missing_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["trace-report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no run record" in capsys.readouterr().err

    def test_mission_trace_records_mission_spans(self, capsys, tmp_path):
        from repro import obs

        trace = tmp_path / "mission.jsonl"
        assert main([
            "mission", "--duration", "60", "--seed", "3",
            "--trace", str(trace),
        ]) == 0
        data = obs.read_record(trace)
        assert data.spec["name"] == "mission-small" and data.seed == 3
        names = {s["name"] for s in data.spans}
        assert "dynamic.run" in names and "dynamic.plan" in names
        assert data.metrics["counters"]["dynamic.faults"] == 2

    def test_trace_report_notes_zero_span_trace(self, capsys, tmp_path):
        """A trace with a manifest and metrics but no spans must say so
        and still render the counters (regression: the span table used to
        vanish silently)."""
        from repro import obs

        trace = tmp_path / "empty_spans.jsonl"
        obs.write_record(trace, obs.RunRecord(
            command="run", seed=1, wall_s=0.5,
            metrics={"counters": {"runner.solves": 1}, "gauges": {},
                     "histograms": {}},
        ))
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "no spans recorded" in out
        assert "runner.solves" in out

    def test_metrics_format_openmetrics(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--metrics-out", str(metrics),
            "--metrics-format", "openmetrics",
        ]) == 0
        text = metrics.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_run_info{" in text and 'command="run"' in text
        assert "runner_solves_total 1" in text

    def test_live_flag_prints_heartbeat(self, capsys):
        from repro import obs

        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--live", "--live-interval", "0.05",
        ]) == 0
        err = capsys.readouterr().err
        assert "[live]" in err
        assert not obs.is_enabled(), "the CLI must switch tracing back off"

    def test_fig4_live_smoke(self, capsys, monkeypatch):
        """`repro experiments fig4 --live` goes through the observed path and emits
        at least the closing heartbeat line."""
        from repro.sim.results import RunRecord, SweepResult

        def stub_sweep(**kwargs):
            sweep = SweepResult(name="fig4", sweep_param="K")
            sweep.add(2, RunRecord("approAlg", 42, 0.1, 100, 2))
            return sweep

        _stub_figure(monkeypatch, "fig4", stub_sweep)
        assert main(
            ["experiments", "fig4", "--scale", "small", "--live"]
        ) == 0
        captured = capsys.readouterr()
        assert "Fig. 4" in captured.out
        assert "[live]" in captured.err

    def test_perf_diff_clean_and_regressed(self, capsys, tmp_path):
        import json

        point = {"scenario": "engine", "algorithm": "approAlg",
                 "workers": 1, "scale": "bench", "wall_s": 1.0}
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        baseline.write_text(json.dumps({"points": [point]}))
        current.write_text(json.dumps({"points": [dict(point, wall_s=1.1)]}))
        assert main(["perf-diff", str(baseline), str(current)]) == 0
        assert "no regression" in capsys.readouterr().out

        current.write_text(json.dumps({"points": [dict(point, wall_s=2.0)]}))
        assert main(["perf-diff", str(baseline), str(current)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_perf_diff_json_output(self, capsys, tmp_path):
        import json

        point = {"scenario": "engine", "algorithm": "approAlg",
                 "workers": 1, "scale": "bench", "wall_s": 1.0}
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"points": [point]}))
        assert main([
            "perf-diff", str(baseline), str(baseline),
            "--threshold", "0.3", "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["regression"] is False
        assert data["threshold"] == 0.3
        assert data["entries"][0]["status"] == "unchanged"

    def test_perf_diff_missing_file_exits_two(self, capsys, tmp_path):
        assert main([
            "perf-diff", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_perf_diff_garbage_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not {{{ json\n")
        assert main(["perf-diff", str(bad), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_seed_forwarded(self, monkeypatch):
        captured = {}

        def stub_sweep(**kwargs):
            captured.update(kwargs)
            from repro.sim.results import SweepResult
            return SweepResult(name="fig4", sweep_param="K")

        _stub_figure(monkeypatch, "fig4", stub_sweep)
        assert main(["experiments", "fig4", "--seed", "123"]) == 0
        assert captured["seed"] == 123


class TestExperimentsCommand:
    """A real `repro experiments` run, checkpointed and then resumed."""

    def test_fig4_small_resumes_from_the_batch_ledger(self, capsys,
                                                      tmp_path):
        checkpoint = tmp_path / "ck"
        args = ["experiments", "fig4", "--scale", "small",
                "--checkpoint", str(checkpoint)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert (checkpoint / "fig4" / "batch-ledger.json").exists()

        metrics = tmp_path / "metrics.json"
        assert main(args + ["--resume", "--metrics-out", str(metrics)]) == 0
        second = capsys.readouterr().out
        assert second.startswith(first)
        # K = 10..20 exceed the 9 locations of the small scale, so four
        # K values run, each with the five paper algorithms.
        counters = json.loads(metrics.read_text())["counters"]
        assert counters["resume.specs_skipped"] == 4 * 5
        assert counters["sweep.points_skipped"] == 6

    @pytest.mark.parametrize("figure", ["fig5", "fig6a"])
    def test_fleet_larger_than_the_scale_is_a_usage_error(self, capsys,
                                                          figure):
        # fig5 and fig6a fix K = 20; the small scale has 9 locations.
        assert main(["experiments", figure, "--scale", "small"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {figure} --scale small: ")
        assert captured.err.count("\n") == 1
        assert "9 candidate locations" in captured.err

    def test_run_record_names_the_specs(self, capsys, tmp_path):
        from repro.obs import read_record

        trace = tmp_path / "trace.jsonl"
        assert main(["experiments", "fig4", "--scale", "small",
                     "--trace", str(trace)]) == 0
        specs = read_record(trace).spec
        assert [spec["name"] for spec in specs] == [
            f"fig4-{i}" for i in range(4 * 5)
        ]
        assert {spec["num_uavs"] for spec in specs} == {2, 4, 6, 8}


BAD_FLAG_VALUES = [
    ["run", "--users", "0"],
    ["run", "--uavs", "0"],
    ["experiments", "fig4", "--reps", "0"],
    ["experiments", "fig4", "--reps", "-2"],
    ["ratio", "--s", "0"],
    ["ratio", "--k", "0"],
    ["run", "--seed", "-1", "--users", "50", "--uavs", "4"],
    ["dynamic", "--scenario", "dynamic-small", "--seed", "-1"],
    ["experiments", "fig4", "--scale", "small", "--seed", "-1"],
]


@pytest.mark.parametrize("argv", BAD_FLAG_VALUES,
                         ids=[" ".join(a) for a in BAD_FLAG_VALUES])
def test_bad_flag_value_is_one_error_line(capsys, argv):
    """A value the command cannot run with prints one ``error:`` line and
    exits 2: no traceback, no empty table."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


class TestScenarioCommands:
    """The spec-driven commands: scenario list/show, run --scenario on a
    spec file, and batch."""

    def _spec(self, **overrides):
        from repro.scenario.spec import ScenarioSpec

        base = dict(
            name="cli-spec", scale="small", num_users=60, num_uavs=3,
            seed=4, algorithm="approAlg",
            algorithm_params={"s": 2, "gain_mode": "fast"},
        )
        base.update(overrides)
        return ScenarioSpec(**base)

    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "demo-small" in out
        assert "paper-headline" in out

    def test_scenario_show_round_trips(self, capsys):
        from repro.scenario.spec import ScenarioSpec, get_preset

        assert main(["scenario", "show", "demo-small"]) == 0
        out = capsys.readouterr().out
        assert ScenarioSpec.from_json(out) == get_preset("demo-small")

    def test_scenario_show_unknown_exits_two(self, capsys):
        assert main(["scenario", "show", "galactic"]) == 2
        err = capsys.readouterr().err
        assert "demo-small" in err        # lists the known presets

    def test_scenario_show_requires_preset(self, capsys):
        assert main(["scenario", "show"]) == 2

    def test_run_from_spec_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        self._spec(algorithm="MCS", algorithm_params={}).save(path)
        assert main(["run", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        # Algorithm comes from the spec, not the CLI default.
        assert "MCS: served" in out

    def test_run_from_spec_file_matches_flags(self, capsys, tmp_path):
        """A saved spec reproduces the same run as the equivalent flags."""
        path = tmp_path / "spec.json"
        self._spec().save(path)
        assert main(["run", "--scenario", str(path)]) == 0
        via_spec = capsys.readouterr().out
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--s", "2", "--anchor-pool", "0",
        ]) == 0
        via_flags = capsys.readouterr().out
        assert via_spec.splitlines()[0].rsplit(" in ", 1)[0] == \
            via_flags.splitlines()[0].rsplit(" in ", 1)[0]

    def test_batch_runs_spec_files(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        self._spec(name="batch-a").save(a)
        self._spec(name="batch-b", algorithm="MCS",
                   algorithm_params={}).save(b)
        assert main(["batch", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "2 specs" in out
        assert "batch-a" in out and "batch-b" in out

    def test_batch_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("params,unknown", [
        ({"s": 2, "foo": 1}, "foo"),
        ({"inner": "typo"}, "inner"),
    ], ids=["foo", "inner"])
    @pytest.mark.parametrize("command", ["run", "dynamic"])
    def test_unknown_algorithm_param_is_one_error_line(
        self, capsys, tmp_path, command, params, unknown
    ):
        """An ``algorithm_params`` key the solver does not take names the
        key and the accepted ones in one ``error:`` line, exit 2."""
        if command == "run":
            spec = self._spec(algorithm_params=params)
        else:
            from repro.dynamics import get_dynamic_preset

            spec = get_dynamic_preset("dynamic-small").with_overrides(
                algorithm_params=params
            )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: algorithm 'approAlg' takes no parameter(s) {unknown}; "
            "accepted: s, anchor_candidates, "
        )
        assert captured.err.count("\n") == 1

    def _command_spec(self, command, **overrides):
        """A ``run`` spec or a ``dynamic`` spec with ``overrides``."""
        if command == "run":
            return self._spec(**overrides)
        from repro.dynamics import get_dynamic_preset

        return get_dynamic_preset("dynamic-small").with_overrides(**overrides)

    @pytest.mark.parametrize("command", ["run", "dynamic"])
    def test_unknown_algorithm_is_one_error_line(self, capsys, tmp_path,
                                                 command):
        """A spec naming an algorithm the registry does not know prints
        one ``error:`` line naming the known algorithms, exit 2."""
        path = tmp_path / "spec.json"
        self._command_spec(command, algorithm="Nope").save(path)
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: unknown algorithm 'Nope'; known: ")
        assert "approAlg" in captured.err and "MCS" in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["run", "dynamic"])
    def test_bad_gain_mode_is_one_error_line(self, capsys, tmp_path,
                                             command):
        path = tmp_path / "spec.json"
        self._command_spec(
            command, algorithm_params={"s": 1, "gain_mode": "slow"}
        ).save(path)
        assert main([command, "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: algorithm 'approAlg' parameter gain_mode must be "
            "'exact' or 'fast', got 'slow'\n"
        )

    def test_batch_records_a_bad_gain_mode_as_that_specs_error(
        self, capsys, tmp_path
    ):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        self._spec(name="batch-good").save(good)
        self._spec(name="batch-slow",
                   algorithm_params={"s": 2, "gain_mode": "slow"}).save(bad)
        assert main(["batch", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "batch-good" in captured.out
        assert captured.err == (
            "error: spec #1 (batch-slow): error: SpecError: algorithm "
            "'approAlg' parameter gain_mode must be 'exact' or 'fast', "
            "got 'slow'\n"
        )

    def test_batch_records_an_unknown_algorithm_as_that_specs_error(
        self, capsys, tmp_path
    ):
        """A spec naming an algorithm the registry does not know fails
        alone: the other specs run, and ``batch`` names it and exits 1."""
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        self._spec(name="batch-good").save(good)
        self._spec(name="batch-nope", algorithm="Nope").save(bad)
        assert main(["batch", str(good), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "batch-good" in captured.out and "batch-nope" in captured.out
        assert captured.err.startswith(
            "error: spec #1 (batch-nope): error: SpecError: unknown "
            "algorithm 'Nope'; known: "
        )
        assert "approAlg" in captured.err and "MCS" in captured.err
        assert captured.err.count("\n") == 1

    def test_unknown_baseline_param_is_one_error_line(self, capsys,
                                                      tmp_path):
        path = tmp_path / "spec.json"
        self._spec(algorithm="MCS", algorithm_params={"s": 2}).save(path)
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: algorithm 'MCS' takes no parameter(s) s; "
            "accepted: num_seeds\n"
        )

    def test_batch_reports_spec_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        self._spec(name="batch-bad",
                   algorithm_params={"bogus": True}).save(bad)
        assert main(["batch", str(bad)]) == 1
        assert "batch-bad" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "--scenario"], ["dynamic", "--scenario"], ["profile"],
    ])
    def test_spec_file_that_is_not_json_is_one_error_line(
        self, capsys, tmp_path, command
    ):
        """A spec file that is not JSON names the file, as ``batch``
        does, in one ``error:`` line and exit 2 — no traceback."""
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["batch", str(path)]) == 2
        want = capsys.readouterr().err
        assert want.startswith(f"error: {path}: spec is not valid JSON: ")
        assert main(command + [str(path)]) == 2
        assert capsys.readouterr().err == want


class TestFlightRecorderCli:
    """CLI surface of the flight recorder: --timeline/--archive on
    observed commands, `repro profile`, and `repro runs`."""

    def test_run_timeline_flag_writes_jsonl(self, capsys, tmp_path):
        from repro.obs import read_record

        timeline = tmp_path / "tl.jsonl"
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--timeline", str(timeline),
            "--live-interval", "0.5",
        ]) == 0
        assert "timeline (" in capsys.readouterr().out
        record = read_record(timeline)
        assert record.timeline and record.interval_s == 0.5
        assert record.dropped == 0 and record.spans
        # The closing snapshot carries the run's final counters.
        assert record.timeline[-1]["counters"]["runner.solves"] == 1

    def test_preset_run_records_the_preset_spec(self, capsys, tmp_path):
        """The record names the spec that ran, not the CLI defaults."""
        from repro.obs import read_record
        from repro.scenario import get_preset

        trace = tmp_path / "t.jsonl"
        assert main(["run", "--scenario", "demo-small",
                     "--trace", str(trace)]) == 0
        record = read_record(trace)
        preset = get_preset("demo-small")
        assert record.spec == preset.to_dict()
        assert record.spec["num_users"] == 300
        assert record.spec["num_uavs"] == 6
        assert record.seed == 42
        assert record.scenario_key == json.loads(
            json.dumps(list(preset.scenario_key())))

    def test_live_timeline_archive_share_one_sampler_thread(
        self, capsys, tmp_path, monkeypatch
    ):
        import threading

        from repro.obs import sampler as sampler_mod

        started: list = []
        real_start = threading.Thread.start

        def counting_start(thread):
            if thread.name == sampler_mod.THREAD_NAME:
                started.append(thread)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        assert main([
            "run", "--users", "40", "--uavs", "3", "--scale", "small",
            "--live", "--timeline", str(tmp_path / "tl.jsonl"),
            "--archive", "--archive-root", str(tmp_path / "runs"),
            "--trace", str(tmp_path / "t.jsonl"),
        ]) == 0
        assert len(started) == 1
        assert (tmp_path / "tl.jsonl").read_text().splitlines()[1:] == (
            tmp_path / "t.jsonl").read_text().splitlines()[1:]

    def test_trace_embeds_timeline_and_report_renders_it(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        timeline = tmp_path / "tl.jsonl"
        assert main([
            "run", "--users", "60", "--uavs", "3", "--scale", "small",
            "--seed", "4", "--trace", str(trace),
            "--timeline", str(timeline),
        ]) == 0
        capsys.readouterr()
        assert main(["trace-report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "timeline (" in out and "snapshots over" in out

    def test_run_archive_then_runs_list_show_compare(
        self, capsys, tmp_path
    ):
        root = str(tmp_path / "runs")
        args = ["run", "--users", "60", "--uavs", "3", "--scale", "small",
                "--seed", "4", "--archive", "--archive-root", root]
        assert main(args) == 0
        assert "run archived as run-0001" in capsys.readouterr().out
        assert main(args) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "run-0001" in out and "run-0002" in out
        assert "small,60,3" in out  # scenario_key made it into the index

        assert main(["runs", "show", "run-0001", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "pipeline.solve" in out and "scenario" in out

        assert main([
            "runs", "compare", "run-0001", "run-0002", "--root", root,
        ]) in (0, 1)  # same workload; tiny timing jitter may cross 15%
        assert "runs compare run-0001 -> run-0002" in capsys.readouterr().out

    def test_profile_command_smoke(self, capsys, tmp_path):
        import json

        from repro import obs

        out_path = tmp_path / "p.speedscope.json"
        collapsed = tmp_path / "p.collapsed"
        root = str(tmp_path / "runs")
        assert main([
            "profile", "demo-small", "--hz", "200", "--out", str(out_path),
            "--collapsed", str(collapsed), "--archive",
            "--archive-root", root,
        ]) == 0
        out = capsys.readouterr().out
        assert "profiler:" in out and "samples" in out
        assert "approAlg" in out
        assert "run archived as run-0001" in out
        doc = json.loads(out_path.read_text())
        assert doc["profiles"][0]["type"] == "sampled"
        assert collapsed.exists()
        assert not obs.is_enabled(), "profile must switch tracing back off"

        # The archived profile renders in `runs show`.
        assert main(["runs", "show", "run-0001", "--root", root]) == 0
        assert "profile (" in capsys.readouterr().out

    def test_profile_unknown_scenario_exits_two(self, capsys):
        assert main(["profile", "no-such-preset"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_profile_rejects_non_spec_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "other"}')
        assert main(["profile", str(bad)]) == 2
        assert "scenario-spec" in capsys.readouterr().err
