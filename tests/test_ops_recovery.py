"""Connectivity under link faults, the largest connected remnant the
mission world serves from, and the rule that adopts a repair."""

import pytest

from repro.dynamics import WorldState, get_dynamic_preset, run_dynamic
from repro.ops import CRASH, Fault
from repro.ops.recovery import residual_connected, uav_components
from tests.conftest import make_line_instance
from tests.test_dynamics_oracle import oracle_spec
from tests.test_ops_mission import run_scripted


@pytest.fixture
def line():
    """5 locations in a chain, 4 users each, one UAV per cluster."""
    return make_line_instance(
        num_locations=5, users_per_location=4,
        capacities=(4, 4, 4, 4, 4),
    )


def full_chain() -> dict:
    return {k: k for k in range(5)}


def world_with(problem, placements: dict, down=(), degraded=()):
    world = WorldState.from_problem(problem)
    world.placements = dict(placements)
    world.down = set(down)
    world.degraded_links = set(degraded)
    return world


class TestComponents:
    def test_connected_chain_is_one_component(self, line):
        assert uav_components(line, full_chain()) == [[0, 1, 2, 3, 4]]
        assert residual_connected(line, full_chain())

    def test_hole_splits_chain(self, line):
        placements = {0: 0, 1: 1, 3: 3, 4: 4}  # location 2 vacant
        assert uav_components(line, placements) == [[0, 1], [3, 4]]
        assert not residual_connected(line, placements)

    def test_degraded_link_splits(self, line):
        degraded = {(1, 2)}  # the UAVs at locations 1 and 2
        assert uav_components(line, full_chain(), degraded) == [
            [0, 1], [2, 3, 4]
        ]
        assert not residual_connected(line, full_chain(), degraded)

    def test_empty_is_connected(self, line):
        assert uav_components(line, {}) == []
        assert residual_connected(line, {})


class TestDegrade:
    """``WorldState.active_placements`` is the largest connected remnant
    of the flying UAVs, and the world serves from it alone."""

    def test_keeps_largest_remnant(self, line):
        # UAV 1 is down: {0} vs {2, 3, 4} remain.
        world = world_with(line, full_chain(), down={1})
        assert world.active_placements() == {2: 2, 3: 3, 4: 4}
        assert world.evaluate(0.0) == 12

    def test_end_failure_no_split(self, line):
        world = world_with(line, full_chain(), down={4})
        assert world.active_placements() == {0: 0, 1: 1, 2: 2, 3: 3}
        assert world.evaluate(0.0) == 16

    def test_capacity_breaks_size_ties(self):
        line = make_line_instance(
            num_locations=5, users_per_location=2,
            capacities=(1, 1, 1, 4, 4),
        )
        # Middle UAV down: {0, 1} and {3, 4} have equal size; the
        # higher-capacity side must win.
        world = world_with(line, full_chain(), down={2})
        assert world.active_placements() == {3: 3, 4: 4}

    def test_lowest_index_breaks_full_ties(self, line):
        world = world_with(line, full_chain(), down={2})
        assert world.active_placements() == {0: 0, 1: 1}
        assert world.evaluate(0.0) == 8

    def test_degraded_link_splits_the_served_network(self, line):
        world = world_with(line, full_chain(), degraded={(1, 2)})
        assert world.active_placements() == {2: 2, 3: 3, 4: 4}
        assert world.evaluate(0.0) == 12
        world.degraded_links.clear()
        assert world.evaluate(1.0) == 20

    def test_everything_lost(self, line):
        world = world_with(line, full_chain(), down=range(5))
        assert world.active_placements() == {}
        assert world.evaluate(0.0) == 0


class TestPlanRepair:
    """``WorldState.repairs``: a plan is adopted only if it is connected
    under the degraded links and serves strictly more than the remnant."""

    def test_reconnects_after_partition(self, line):
        # UAV 2 crashed: the remnant {0, 1} serves 8; a 4-UAV chain over
        # locations 0-3 serves 16.
        world = world_with(line, full_chain(), down={2})
        assert world.evaluate(0.0) == 8
        assert world.repairs({0: 0, 1: 1, 3: 2, 4: 3}, 0.0)

    def test_no_better_when_remnant_already_optimal(self, line):
        # End UAV lost: the contiguous remnant of 4 serves 16, which is
        # the best any 4-UAV connected deployment can do here.
        world = world_with(line, full_chain(), down={4})
        assert not world.repairs({0: 1, 1: 2, 2: 3, 3: 4}, 0.0)

    def test_degraded_link_blocks_plan_relying_on_it(self, line):
        # The chain is split at the 2<->3 hop; a plan that puts UAVs 2
        # and 3 side by side again is disconnected and must be rejected,
        # while the same positions with the pair apart are adopted.
        world = world_with(line, full_chain(), degraded={(2, 3)})
        assert world.evaluate(0.0) == 12
        assert not world.repairs(full_chain(), 0.0)
        assert world.repairs({0: 0, 1: 1, 2: 2, 4: 3, 3: 4}, 0.0)

    def test_no_uavs(self, monkeypatch, line):
        result, world = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0 + k, kind=CRASH, uav_index=k)
            for k in range(5)
        ])
        assert result.faults == 5
        assert result.final_placements == {}
        assert result.final_served == 0
        # The last crash leaves nothing to fly: no re-solve follows it.
        assert max(e.t_s for e in result.epochs) < 14.0

    def test_relocation_plan_maps_fleet_indices(self, monkeypatch, line):
        """The repair pairs the flyable UAVs (fleet indices) to the plan's
        positions: after the middle UAV crashes, the four others fly a
        connected chain and the crashed UAV is never re-dispatched."""
        result, _ = run_scripted(monkeypatch, line, [
            Fault(time_s=10.0, kind=CRASH, uav_index=2),
        ])
        repaired = result.final_placements
        assert set(repaired) == {0, 1, 3, 4}
        assert len(set(repaired.values())) == 4
        assert residual_connected(line, repaired)
        assert result.final_served == 16


def test_served_network_is_one_component_at_every_evaluation(monkeypatch):
    """With crashes and link faults, every evaluation serves from one
    component of the flying UAVs once degraded links are removed."""
    checks = []
    evaluate = WorldState.evaluate

    def checked(world, now):
        checks.append(residual_connected(
            world.base_problem, world.active_placements(),
            world.degraded_links,
        ))
        return evaluate(world, now)

    monkeypatch.setattr(WorldState, "evaluate", checked)
    mission = get_dynamic_preset("mission-small")
    for spec in (
        mission.with_overrides(seed=4, num_links=2),
        mission.with_overrides(seed=7, num_links=2),
        oracle_spec(3, num_crashes=1, num_links=2, resolve_policy="drift",
                    relocation_speed_mps=15.0),
    ):
        run_dynamic(spec)
    assert len(checks) > 30
    assert all(checks)
