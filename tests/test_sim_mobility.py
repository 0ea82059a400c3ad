"""User mobility and re-deployment (Section II-C) on the dynamics engine.

A mobility-only mission: no churn, users take a Gaussian walk every
``mobility_step_s``.  The ``event`` policy never re-plans for mobility
(the deployment goes stale); ``periodic`` re-plans every epoch.
"""

import numpy as np
import pytest

from repro.dynamics import DynamicSpec, run_dynamic
from repro.dynamics.engine import DynamicResult, _Engine
from repro.scenario.spec import SpecError
from repro.sim.mobility import GaussianWalk


def mobility_spec(**overrides) -> DynamicSpec:
    base = dict(
        name="mobility", scale="small", num_users=150, num_uavs=4, seed=8,
        algorithm="approAlg",
        algorithm_params={"s": 1, "gain_mode": "fast"},
        duration_s=300.0, epoch_s=60.0, resolve_policy="event",
        arrival_rate_per_s=0.0, hotspot_drift_mps=0.0,
        mobility_sigma_m=150.0, mobility_step_s=30.0,
    )
    base.update(overrides)
    return DynamicSpec(**base)


class TestGaussianWalk:
    def test_zero_sigma_is_static(self):
        walk = GaussianWalk(sigma_m=0.0)
        xy = np.array([[10.0, 20.0], [30.0, 40.0]])
        rng = np.random.default_rng(0)
        out = walk.step(xy, (0.0, 100.0, 0.0, 100.0), rng)
        assert np.allclose(out, xy)

    def test_stays_in_bounds(self):
        walk = GaussianWalk(sigma_m=50.0)
        rng = np.random.default_rng(1)
        xy = rng.uniform(0, 100, size=(200, 2))
        for _ in range(20):
            xy = walk.step(xy, (0.0, 100.0, 0.0, 100.0), rng)
            assert (xy >= 0.0).all() and (xy <= 100.0).all()

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianWalk(sigma_m=-1.0)


class TestSimulateMobility:
    def test_trace_shape(self):
        spec = mobility_spec()
        result = run_dynamic(spec)
        assert result.policy == "event"
        assert [e.trigger for e in result.epochs] == ["initial"]
        assert result.timeline[0][0] == 0.0
        assert result.timeline[-1][0] == spec.duration_s
        assert all(0 <= s <= a == 150 for _, s, a in result.timeline)

    def test_static_users_static_service(self):
        """With sigma = 0 every step serves the same count."""
        result = run_dynamic(mobility_spec(mobility_sigma_m=0.0))
        assert len({served for _, served, _ in result.timeline}) == 1

    def test_refresh_counts_redeploys(self):
        result = run_dynamic(mobility_spec(resolve_policy="periodic"))
        # The initial plan plus one re-plan per epoch tick (60 ... 300 s).
        assert [e.t_s for e in result.epochs] == [
            0.0, 60.0, 120.0, 180.0, 240.0, 300.0,
        ]

    def test_validation(self):
        for field, value in (
            ("mobility_step_s", 0.0),
            ("mobility_sigma_m", -1.0),
            ("relocation_speed_mps", 0.0),
            ("epoch_s", 0.0),
        ):
            with pytest.raises(SpecError, match=field):
                mobility_spec(**{field: value})

    def test_relocation_downtime_counted(self, monkeypatch):
        """With a slow fleet, re-deployments are adopted only after the
        slowest UAV arrives (serving from the old positions meanwhile)."""
        adopted = []
        adopt = _Engine._adopt

        def recording(engine, placements, now):
            adopted.append(now)
            adopt(engine, placements, now)

        monkeypatch.setattr(_Engine, "_adopt", recording)
        spec = mobility_spec(resolve_policy="periodic")
        run_dynamic(spec)
        instant = list(adopted)
        adopted.clear()
        run_dynamic(spec.with_overrides(relocation_speed_mps=20.0))
        assert instant == [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]
        # Some re-plans land between epoch ticks, after their transit.
        assert set(adopted) - set(instant)
        assert adopted == sorted(adopted)

    def test_fast_fleet_equals_instant(self):
        """A very fast fleet (transit far below the mobility step) serves
        like the instantaneous model at every step between epochs."""
        spec = mobility_spec(resolve_policy="periodic")
        fast = run_dynamic(spec.with_overrides(relocation_speed_mps=1e9))
        instant = run_dynamic(spec)

        def between_epochs(result):
            return {t: s for t, s, _ in result.timeline if t % 60 == 30}

        assert between_epochs(fast) == between_epochs(instant)
        assert len(between_epochs(fast)) == 5
        assert len(fast.epochs) == len(instant.epochs)


class TestComparePolicies:
    def test_refresh_at_least_stale_on_average(self):
        """Re-deployment can only use fresher information; over a strong
        drift it must not lose (tolerance for assignment noise)."""
        stale = run_dynamic(mobility_spec())
        refreshed = run_dynamic(mobility_spec(resolve_policy="periodic"))
        assert refreshed.mean_coverage >= stale.mean_coverage * 0.95
        assert len(refreshed.epochs) > len(stale.epochs)

    def test_trace_helpers(self):
        result = DynamicResult(
            name="x", policy="event", warm=True, duration_s=10.0,
            timeline=[(0.0, 2, 4), (5.0, 4, 4), (10.0, 3, 0)],
        )
        assert result.coverage_series == [0.5, 1.0, 1.0]
        assert result.mean_coverage == pytest.approx(2.5 / 3)
        assert result.min_coverage == 0.5
        assert result.final_served == 3
        empty = DynamicResult(
            name="y", policy="event", warm=True, duration_s=10.0
        )
        assert empty.mean_coverage == 0.0
        assert empty.final_served == 0
