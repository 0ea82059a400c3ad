"""Tests for the unified dynamic mission engine."""

import pytest

from repro.dynamics import DynamicSpec, run_dynamic


def make_spec(**overrides) -> DynamicSpec:
    base = dict(
        name="engine-t", scale="small", num_users=40, num_uavs=4, seed=11,
        algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast",
                          "max_anchor_candidates": 6},
        duration_s=240.0, epoch_s=60.0, arrival_rate_per_s=0.05,
        mean_dwell_s=200.0, mobility_sigma_m=20.0,
    )
    base.update(overrides)
    return DynamicSpec(**base)


def run_signature(result):
    """Everything that must be deterministic (wall latencies excluded)."""
    return (
        result.timeline,
        [(e.t_s, e.trigger, e.served, e.num_placed) for e in result.epochs],
        result.arrivals, result.departures, result.faults,
        result.final_placements,
    )


class TestDeterminism:
    def test_same_seed_same_run(self):
        spec = make_spec()
        a = run_dynamic(spec)
        b = run_dynamic(spec)
        assert run_signature(a) == run_signature(b)

    def test_different_seed_different_events(self):
        a = run_dynamic(make_spec())
        b = run_dynamic(make_spec(seed=12))
        assert a.timeline != b.timeline


class TestTimeline:
    def test_timeline_spans_mission(self):
        spec = make_spec()
        result = run_dynamic(spec)
        times = [t for t, _, _ in result.timeline]
        assert times[0] == 0.0
        assert times[-1] == spec.duration_s
        assert times == sorted(times)

    def test_coverage_series_bounded(self):
        result = run_dynamic(make_spec())
        assert all(0.0 <= c <= 1.0 for c in result.coverage_series)
        assert 0.0 <= result.min_coverage <= result.mean_coverage <= 1.0
        assert result.final_served == result.timeline[-1][1]

    def test_churn_happened(self):
        result = run_dynamic(make_spec())
        assert result.arrivals > 0
        # Every tracked user either got served at some point or is counted
        # unserved.
        assert result.unserved_users >= 0
        assert all(t >= 0 for t in result.time_to_serve_s)

    def test_to_dict_is_json_shaped(self):
        import json

        data = run_dynamic(make_spec()).to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["resolves"] == len(run_dynamic(make_spec()).epochs)


class TestPolicies:
    def test_periodic_resolves_every_epoch(self):
        spec = make_spec(resolve_policy="periodic")
        result = run_dynamic(spec)
        epoch_solves = [e for e in result.epochs if e.trigger == "epoch"]
        # Four epoch ticks in 240 s at 60 s cadence; the tick at t=240
        # still fires (drain is inclusive of the horizon).
        assert len(epoch_solves) == 4
        assert result.epochs[0].trigger == "initial"

    def test_event_policy_without_faults_never_resolves(self):
        spec = make_spec(resolve_policy="event")
        result = run_dynamic(spec)
        assert [e.trigger for e in result.epochs] == ["initial"]

    def test_drift_resolves_at_most_periodic(self):
        periodic = run_dynamic(make_spec(resolve_policy="periodic"))
        drift = run_dynamic(
            make_spec(resolve_policy="drift", drift_threshold=0.9)
        )
        # A near-impossible drift threshold re-solves strictly less often.
        assert len(drift.epochs) <= len(periodic.epochs)


class TestStaticDegenerate:
    def test_zeroed_knobs_static_mission(self):
        spec = make_spec(
            arrival_rate_per_s=0.0, mobility_sigma_m=0.0,
            hotspot_drift_mps=0.0,
        )
        result = run_dynamic(spec)
        assert result.arrivals == 0
        assert result.departures == 0
        # Nothing moves, so coverage is flat across the whole mission.
        assert len(set(result.coverage_series)) == 1


class TestFaults:
    def test_crash_removes_uav(self):
        spec = make_spec(num_crashes=2, resolve_policy="event")
        result = run_dynamic(spec)
        assert result.faults == 2
        fault_solves = [e for e in result.epochs if e.trigger == "fault"]
        assert fault_solves
        # Crashed UAVs never appear in the final placements.
        assert len(result.final_placements) <= spec.num_uavs - 2

    def test_fault_run_deterministic(self):
        spec = make_spec(num_crashes=1, num_links=1)
        assert run_signature(run_dynamic(spec)) \
            == run_signature(run_dynamic(spec))


class TestRelocation:
    def test_transit_delays_adoption(self):
        fast = run_dynamic(make_spec(relocation_speed_mps=1000.0))
        slow = run_dynamic(make_spec(relocation_speed_mps=0.5))
        # At 0.5 m/s most transitions never complete inside the mission,
        # so the slow run adopts fewer (or equal) re-plans; both runs are
        # still well-formed.
        assert fast.final_placements
        assert slow.final_placements
        assert len(slow.epochs) == len(fast.epochs)


class TestWarmOverride:
    def test_warm_flag_recorded(self):
        spec = make_spec()
        warm = run_dynamic(spec, warm=True)
        cold = run_dynamic(spec, warm=False)
        assert warm.warm is True
        assert cold.warm is False
        assert all(
            e.warm for e in warm.epochs if e.trigger != "initial"
        )
        assert not any(e.warm for e in cold.epochs)

    def test_unknown_algorithm_raises(self):
        with pytest.raises(KeyError):
            run_dynamic(make_spec(algorithm="definitely-not-real"))
