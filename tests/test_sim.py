"""Tests for the simulation harness: solves, results, sweeps."""

import pytest

from repro.scenario.pipeline import SolvePipeline
from repro.scenario.registry import DEFAULT_REGISTRY
from repro.sim.experiments import fig4_sweep, fig5_sweep, fig6_sweep
from repro.sim.results import RunRecord, SweepResult
from repro.workload.scenarios import paper_scenario


@pytest.fixture(scope="module")
def tiny():
    return paper_scenario(num_users=120, num_uavs=4, scale="small", seed=2)


class TestRunner:
    def test_all_algorithms_registered(self):
        assert {
            "approAlg",
            "MCS",
            "MotionCtrl",
            "GreedyAssign",
            "maxThroughput",
            "RandomConnected",
            "Unconstrained",
        } == set(DEFAULT_REGISTRY.names())

    def test_unknown_algorithm(self, tiny):
        with pytest.raises(KeyError, match="known"):
            SolvePipeline().solve(tiny, "Oracle9000")

    def test_run_records_fields(self, tiny):
        rec = SolvePipeline().solve(tiny, "MCS").record
        assert rec.algorithm == "MCS"
        assert 0 <= rec.served <= tiny.num_users
        assert rec.runtime_s >= 0.0
        assert rec.num_users == tiny.num_users
        assert rec.num_uavs == tiny.num_uavs
        assert 0.0 <= rec.served_fraction <= 1.0

    def test_every_algorithm_valid_on_tiny(self, tiny):
        for name in DEFAULT_REGISTRY.names():
            params = {"s": 2, "gain_mode": "fast"} if name == "approAlg" else {}
            # The pipeline validates (strictly) before it reports.
            rec = SolvePipeline().solve(tiny, name, params).record
            assert rec.ok and rec.served >= 0


class TestRunRecord:
    def test_from_dict_ignores_a_legacy_attempts_trail(self):
        """Ledgers written while a solver watchdog existed carry an
        ``attempts`` list per record; they still load, without it."""
        payload = {
            "algorithm": "GreedyAssign", "served": 40, "runtime_s": 0.2,
            "num_users": 120, "num_uavs": 4, "params": {},
            "status": "ok", "error": None,
            "attempts": [
                {"algorithm": "approAlg", "elapsed_s": 0.1,
                 "status": "timeout", "error": "budget exhausted"},
                {"algorithm": "GreedyAssign", "elapsed_s": 0.1,
                 "status": "ok", "error": None},
            ],
        }
        rec = RunRecord.from_dict(payload)
        assert rec == RunRecord("GreedyAssign", 40, 0.2, 120, 4)
        assert "attempts" not in rec.to_dict()
        assert RunRecord.from_dict(rec.to_dict()) == rec


class TestSweepResult:
    def make(self) -> SweepResult:
        sweep = SweepResult(name="demo", sweep_param="K")
        for k, served in ((2, 10), (4, 20)):
            for alg in ("A", "B"):
                sweep.add(
                    k,
                    RunRecord(
                        algorithm=alg,
                        served=served + (5 if alg == "B" else 0),
                        runtime_s=0.1,
                        num_users=100,
                        num_uavs=k,
                    ),
                )
        return sweep

    def test_series(self):
        sweep = self.make()
        series = sweep.series("served")
        assert series["A"] == {2: 10, 4: 20}
        assert series["B"] == {2: 15, 4: 25}

    def test_rows_and_tables(self):
        sweep = self.make()
        headers, rows = sweep.rows()
        assert headers == ["K", "A", "B"]
        assert rows[0] == [2, 10, 20] or rows[0] == [2, 10.0, 15.0]
        text = sweep.to_text()
        assert "K" in text and "A" in text
        md = sweep.to_markdown()
        assert md.startswith("| K |")

    def test_mean_over_repetitions(self):
        sweep = SweepResult(name="demo", sweep_param="K")
        for served in (10, 20):
            sweep.add(2, RunRecord("A", served, 0.1, 100, 2))
        assert sweep.series()["A"][2] == 15.0

    def test_samples_and_std(self):
        sweep = SweepResult(name="demo", sweep_param="K")
        for served in (10, 20, 30):
            sweep.add(2, RunRecord("A", served, 0.1, 100, 2))
        assert sweep.samples()["A"][2] == [10, 20, 30]
        assert sweep.series()["A"][2] == 20.0
        assert sweep.series_std()["A"][2] == pytest.approx(10.0)

    def test_std_zero_single_sample(self):
        sweep = SweepResult(name="demo", sweep_param="K")
        sweep.add(2, RunRecord("A", 10, 0.1, 100, 2))
        assert sweep.series_std()["A"][2] == 0.0

    def test_to_csv(self):
        sweep = self.make()
        csv = sweep.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "K,A,B"
        assert lines[1].startswith("2,")
        assert len(lines) == 3


class TestSweeps:
    def test_fig4_tiny(self):
        result = fig4_sweep(
            ks=(2, 3),
            num_users=80,
            s=1,
            scale="small",
            algorithms=("approAlg", "MCS"),
            max_anchor_candidates=4,
        )
        series = result.series()
        assert set(series) == {"approAlg", "MCS"}
        assert set(series["approAlg"]) == {2, 3}
        # More UAVs serve at least roughly as many users.
        assert series["approAlg"][3] >= series["approAlg"][2] * 0.8

    def test_fig5_tiny(self):
        result = fig5_sweep(
            ns=(50, 100),
            num_uavs=3,
            s=1,
            scale="small",
            algorithms=("approAlg",),
            max_anchor_candidates=4,
        )
        series = result.series()["approAlg"]
        assert series[100] >= series[50] * 0.9

    def test_fig6_tiny(self):
        result = fig6_sweep(
            ss=(1, 2),
            num_users=80,
            num_uavs=4,
            scale="small",
            algorithms=("approAlg",),
            max_anchor_candidates=4,
        )
        served = result.series("served")["approAlg"]
        runtime = result.series("runtime_s")["approAlg"]
        assert set(served) == {1, 2}
        assert all(v >= 0 for v in runtime.values())

    def test_capacity_spread_sweep_tiny(self):
        from repro.sim.experiments import capacity_spread_sweep

        result = capacity_spread_sweep(
            spreads=((5, 5), (2, 8)),
            num_users=60,
            num_uavs=3,
            s=1,
            scale="small",
            max_anchor_candidates=4,
        )
        series = result.series()["approAlg"]
        assert set(series) == {"[5,5]", "[2,8]"}
        assert all(v >= 0 for v in series.values())

    def test_environment_sweep_tiny(self):
        from repro.sim.experiments import environment_sweep

        result = environment_sweep(
            environments=("suburban", "highrise-urban"),
            num_users=60,
            num_uavs=3,
            min_rate_bps=2.5e6,
            s=1,
            scale="small",
            max_anchor_candidates=4,
        )
        series = result.series()["approAlg"]
        assert series["highrise-urban"] <= series["suburban"]

    def test_fig4_skips_infeasible_ks(self):
        """K values beyond the scale's candidate-location count (one UAV
        per grid at most) are skipped instead of crashing the sweep —
        `repro fig4 --scale small` reaches K=20 on a 9-location grid."""
        result = fig4_sweep(
            ks=(2, 20),
            num_users=40,
            s=1,
            scale="small",
            algorithms=("MCS",),
        )
        assert set(result.series()["MCS"]) == {2}

    def test_fig4_rejects_all_infeasible_ks(self):
        with pytest.raises(ValueError, match="no feasible sweep point"):
            fig4_sweep(ks=(20, 30), num_users=40, scale="small")

    def test_repetitions_average(self):
        result = fig4_sweep(
            ks=(2,),
            num_users=40,
            s=1,
            scale="small",
            repetitions=2,
            algorithms=("MCS",),
        )
        assert len(result.records) == 2
