"""Fault-injected missions on the dynamics engine, with scripted faults.

The missions run on the 5-location line instance (4 users under each
location, capacity 4 per UAV), so every served count is exact: 20 with
the full chain, 16 with a 4-UAV chain, 8 or 12 from a split remnant.
"""

import pytest

from repro.core.assignment import optimal_assignment
from repro.dynamics import DynamicSpec, WorldState, get_dynamic_preset
from repro.dynamics.engine import _Engine
from repro.network.validate import validate_deployment
from repro.ops import (
    BATTERY,
    CRASH,
    LINK,
    Fault,
    FaultSchedule,
    residual_connected,
)
from tests.conftest import make_line_instance


@pytest.fixture
def line():
    return make_line_instance(
        num_locations=5, users_per_location=4,
        capacities=(4, 4, 4, 4, 4),
    )


def run_scripted(monkeypatch, problem, faults, duration_s=120.0):
    """Run ``mission-small`` over ``problem`` with exactly ``faults``.

    Returns the :class:`DynamicResult` and the mission's world.
    """
    spec = get_dynamic_preset("mission-small").with_overrides(
        num_crashes=0, duration_s=duration_s,
        algorithm_params={"s": 2, "gain_mode": "fast"},
    )
    monkeypatch.setattr(DynamicSpec, "build", lambda self: problem)
    engine = _Engine(spec, None)
    FaultSchedule(faults=tuple(faults)).inject(engine.queue)
    return engine.run(), engine.world


def served_at(result, t_s: float) -> int:
    """The served count after every event at ``t_s`` was handled."""
    return [served for t, served, _ in result.timeline if t == t_s][-1]


def assert_valid_and_connected(world) -> None:
    final = optimal_assignment(
        world.graph, world.fleet, world.active_placements()
    )
    validate_deployment(world.graph, world.fleet, final)


class TestMissionBasics:
    def test_no_faults_is_a_quiet_mission(self, monkeypatch, line):
        result, world = run_scripted(monkeypatch, line, [])
        assert result.faults == 0
        assert [e.trigger for e in result.epochs] == ["initial"]
        assert {served for _, served, _ in result.timeline} == {20}
        assert_valid_and_connected(world)

    def test_crash_recovery_restores_validated_network(
        self, monkeypatch, line
    ):
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=CRASH, uav_index=2),
        ])
        assert result.faults == 1
        assert [e.trigger for e in result.epochs] == ["initial", "fault"]
        assert result.min_coverage < 1.0
        assert result.final_served == 16
        assert 2 not in result.final_placements
        assert_valid_and_connected(world)

    def test_two_crashes(self, monkeypatch, line):
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=CRASH, uav_index=1),
            Fault(time_s=40.0, kind=CRASH, uav_index=3),
        ])
        assert result.faults == 2
        assert len(result.final_placements) == 3
        assert result.final_served == 12
        assert not {1, 3} & set(result.final_placements)
        assert_valid_and_connected(world)

    def test_faults_after_duration_ignored(self, monkeypatch, line):
        result, _ = run_scripted(monkeypatch, line, [
            Fault(time_s=500.0, kind=CRASH, uav_index=2),
        ], duration_s=100.0)
        assert result.faults == 0
        assert result.final_served == 20

    def test_timeline_is_monotone_in_time(self, monkeypatch, line):
        result, _ = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=CRASH, uav_index=2),
            Fault(time_s=20.0, kind=CRASH, uav_index=0),
        ])
        times = [t for t, _, _ in result.timeline]
        assert times == sorted(times)
        assert result.timeline[0] == (0.0, 20, 20)


class TestBackoffAndRestore:
    """No backoff ladder remains: a restore (battery swap done, link
    healed) is a fault event, and its re-solve is the repair."""

    def test_swap_return_repairs(self, monkeypatch, line):
        """An end-of-chain battery fault cannot be repaired (a 4-UAV chain
        serves no more than the remnant) until the swapped UAV returns."""
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=BATTERY, uav_index=4, duration_s=50.0),
        ])
        assert [(e.t_s, e.trigger) for e in result.epochs] == [
            (0.0, "initial"), (10.0, "fault"), (60.0, "fault"),
        ]
        assert served_at(result, 10.0) == 16
        assert served_at(result, 60.0) == 20
        assert result.final_served == 20
        assert_valid_and_connected(world)

    def test_permanent_battery_fault_stays_degraded(self, monkeypatch, line):
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=BATTERY, uav_index=4),  # no swap
        ])
        assert 4 in world.down
        assert result.final_served == 16
        assert_valid_and_connected(world)

    def test_link_fault_heals_and_triggers_replan(self, monkeypatch, line):
        """Degrading the link between the UAVs over locations 2 and 3
        strands one side of the chain; the repair re-pairs the stranded
        UAVs so that the degraded pair is no longer adjacent, and the
        healing is handled as a fault event of its own."""
        _, quiet = run_scripted(monkeypatch, line, [])
        uav_at = {loc: k for k, loc in quiet.placements.items()}
        link = (uav_at[2], uav_at[3])
        remnant_at = {}

        def observe(world, now):
            remnant_at[now] = world.active_placements()
            return evaluate(world, now)

        evaluate = WorldState.evaluate
        monkeypatch.setattr(WorldState, "evaluate", observe)
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=LINK, link=link, duration_s=30.0),
        ])
        assert result.faults == 1
        assert served_at(result, 10.0) == 20
        assert len(remnant_at[10.0]) == 5
        assert residual_connected(line, remnant_at[10.0], {link})
        assert 40.0 in [t for t, _, _ in result.timeline]
        assert not world.degraded_links
        assert result.final_served == 20
        assert_valid_and_connected(world)


class TestMissionFailureModes:
    def test_grounded_uav_fault_does_not_degrade_again(
        self, monkeypatch, line
    ):
        """A second fault on a UAV that is already on the ground must not
        touch the serving network a second time."""
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=CRASH, uav_index=4),
            Fault(time_s=50.0, kind=BATTERY, uav_index=4),
        ])
        assert result.faults == 2
        assert served_at(result, 10.0) == served_at(result, 50.0) == 16
        assert result.final_served == 16
        assert_valid_and_connected(world)

    def test_rejected_repair_withdraws_the_relocation_in_transit(
        self, monkeypatch, line
    ):
        """A relocation still in transit was planned before the fault and
        never passed the repair gate, so a rejected repair must withdraw
        it instead of letting it land later."""
        spec = get_dynamic_preset("mission-small").with_overrides(
            num_crashes=0, duration_s=60.0, relocation_speed_mps=10.0,
            algorithm_params={"s": 2, "gain_mode": "fast"},
        )
        monkeypatch.setattr(DynamicSpec, "build", lambda self: line)
        engine = _Engine(spec, None)
        engine.resolve("initial", 0.0)
        before = dict(engine.world.placements)
        uav_at = {loc: k for k, loc in before.items()}
        victim, middle = uav_at[4], uav_at[2]
        # The plan in transit swaps the end UAV into the middle of the
        # chain; crashing that UAV first makes the plan split the network.
        in_transit = {**before, victim: 2, middle: 4}
        engine.pending_relocate = engine.queue.schedule(
            30.0, ("relocate", tuple(sorted(in_transit.items())))
        )
        engine.queue.schedule(
            10.0, ("fault", Fault(time_s=10.0, kind=CRASH, uav_index=victim))
        )
        for now, payload in engine.queue.drain(until=spec.duration_s):
            engine.handle(now, payload)
        # The 4-UAV chain left serves 16 and no 4-UAV plan serves more.
        assert [e.trigger for e in engine.result.epochs] == [
            "initial", "fault",
        ]
        assert engine.pending_relocate is None
        assert engine.world.placements == before
        assert engine.world.evaluate(spec.duration_s) == 16
        assert_valid_and_connected(engine.world)
