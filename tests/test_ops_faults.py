"""Tests for failure injection: fault validation, schedule determinism,
event-queue integration, endurance-derived schedules."""

import pytest

from repro.network.deployment import Deployment
from repro.network.uav import UAV
from repro.ops.faults import BATTERY, CRASH, LINK, Fault, FaultSchedule
from repro.simnet.events import EventQueue


class TestFault:
    def test_crash_needs_uav(self):
        with pytest.raises(ValueError, match="uav_index"):
            Fault(time_s=1.0, kind=CRASH)

    def test_link_needs_pair(self):
        with pytest.raises(ValueError, match="pair"):
            Fault(time_s=1.0, kind=LINK)

    def test_link_endpoints_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            Fault(time_s=1.0, kind=LINK, link=(2, 2))

    def test_crash_must_not_carry_link(self):
        with pytest.raises(ValueError, match="must not carry"):
            Fault(time_s=1.0, kind=CRASH, uav_index=1, link=(0, 1))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Fault(time_s=-0.1, kind=CRASH, uav_index=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(time_s=1.0, kind="gremlins", uav_index=0)


class TestFaultSchedule:
    def test_sorted_by_time(self):
        schedule = FaultSchedule(faults=(
            Fault(time_s=9.0, kind=CRASH, uav_index=1),
            Fault(time_s=2.0, kind=CRASH, uav_index=0),
        ))
        assert [f.time_s for f in schedule] == [2.0, 9.0]

    def test_random_is_deterministic_by_seed(self):
        a = FaultSchedule.random(num_uavs=8, num_crashes=2, num_battery=1,
                                 num_links=2, seed=5)
        b = FaultSchedule.random(num_uavs=8, num_crashes=2, num_battery=1,
                                 num_links=2, seed=5)
        c = FaultSchedule.random(num_uavs=8, num_crashes=2, num_battery=1,
                                 num_links=2, seed=6)
        assert a.faults == b.faults
        assert a.faults != c.faults

    def test_random_victims_distinct(self):
        schedule = FaultSchedule.random(num_uavs=5, num_crashes=3,
                                        num_battery=2, seed=0)
        assert len({f.uav_index for f in schedule}) == 5

    def test_random_too_many_victims_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            FaultSchedule.random(num_uavs=3, num_crashes=2, num_battery=2)

    def test_random_times_within_window(self):
        schedule = FaultSchedule.random(num_uavs=6, num_crashes=3,
                                        window_s=(5.0, 7.0), seed=1)
        assert all(5.0 <= f.time_s <= 7.0 for f in schedule)

    def test_inject_schedules_faults_and_healings(self):
        schedule = FaultSchedule(faults=(
            Fault(time_s=1.0, kind=CRASH, uav_index=0),
            Fault(time_s=2.0, kind=LINK, link=(0, 1), duration_s=3.0),
        ))
        queue = EventQueue()
        schedule.inject(queue)
        assert len(queue) == 3
        times_kinds = []
        while queue:
            t, (kind, _) = queue.pop()
            times_kinds.append((t, kind))
        assert times_kinds == [
            (1.0, "fault"), (2.0, "fault"), (5.0, "link_restored"),
        ]

    def test_from_endurance(self):
        fleet = [UAV(capacity=10, battery_wh=200.0),
                 UAV(capacity=10, battery_wh=800.0)]
        deployment = Deployment(placements={0: 0, 1: 1})
        schedule = FaultSchedule.from_endurance(fleet, deployment)
        assert len(schedule) == 2
        assert all(f.kind == BATTERY for f in schedule)
        by_uav = {f.uav_index: f.time_s for f in schedule}
        # The bigger battery keeps its UAV up longer.
        assert by_uav[1] > by_uav[0]

    def test_from_endurance_horizon_clips(self):
        fleet = [UAV(capacity=10, battery_wh=200.0),
                 UAV(capacity=10, battery_wh=800.0)]
        deployment = Deployment(placements={0: 0, 1: 1})
        full = FaultSchedule.from_endurance(fleet, deployment)
        short = FaultSchedule.from_endurance(
            fleet, deployment, horizon_s=min(f.time_s for f in full) + 1.0
        )
        assert len(short) == 1
