"""The mission's live assignment against the Section II-D max-flow oracle.

``WorldState`` keeps one maximum user assignment across churn instead of
re-solving after every event.  At *every* evaluation of seeded missions,
warm and cold, the live served count must equal
``optimal_assignment``'s, the materialised ``world.deployment()`` must be
feasible, the first-served times must follow the live served set, and
whenever no placed UAV is saturated the served set must equal Dinic's
(it is then unique: every covered user is served).  The
tight-capacity specs saturate stations, so the arrival chain search and
the departure replacement search both run.
"""

from dataclasses import replace
from itertools import combinations

import pytest

from repro import obs
from repro.core.assignment import optimal_assignment
from repro.dynamics import WorldState, run_dynamic
from repro.network.coverage import CoverageGraph
from repro.network.validate import validate_deployment
from repro.scenario.pipeline import SolvePipeline
from tests.test_dynamics_oracle import oracle_spec

SPECS = {
    "base": {},
    "tight": dict(capacity_min=2, capacity_max=5, arrival_rate_per_s=0.15,
                  mean_dwell_s=60.0),
    "faults": dict(num_crashes=1, num_links=1, relocation_speed_mps=15.0,
                   resolve_policy="drift", drift_threshold=0.05),
    "tight-faults": dict(capacity_min=2, capacity_max=5, num_crashes=1,
                         num_links=1, relocation_speed_mps=15.0),
}


class Checked:
    """Wraps ``WorldState.evaluate`` with the oracle checks."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.saturated = 0
        self.differing_sets = 0
        self.world = None             # the mission being checked
        self.stamps: dict = {}
        original = WorldState.evaluate

        def evaluate(world, now):
            served = original(world, now)
            self.check(world, served, now)
            return served

        monkeypatch.setattr(WorldState, "evaluate", evaluate)

    def check(self, world, served: int, now: float) -> None:
        self.calls += 1
        placements = world.active_placements()
        oracle = optimal_assignment(world.graph, world.fleet, placements)
        assert served == oracle.served_count
        live = world.deployment()
        assert live.served_count == served
        assert live.placements == placements
        validate_deployment(
            world.graph, world.fleet, live, require_connected=False
        )
        # First-served times: the first evaluation at which each user id
        # was in the live served set.
        if world is not self.world:
            self.world, self.stamps = world, {}
        for u in live.assignment:
            self.stamps.setdefault(world.user_ids[u], now)
        assert world.first_served_s == self.stamps
        loads = oracle.loads()
        if any(loads.get(k, 0) == world.fleet[k].capacity
               for k in placements):
            self.saturated += 1
            self.differing_sets += set(live.assignment) \
                != set(oracle.assignment)
        else:
            assert set(live.assignment) == set(oracle.assignment)


@pytest.mark.parametrize("warm", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_live_assignment_matches_oracle_at_every_event(
    monkeypatch, name, warm
):
    checked = Checked(monkeypatch)
    seeds = (3, 11, 17, 29)
    for seed in seeds:
        result = run_dynamic(oracle_spec(seed, **SPECS[name]), warm=warm)
        assert result.timeline
    assert checked.calls >= 5 * len(seeds)
    if name.startswith("tight"):
        assert checked.saturated > 0


def test_tight_missions_run_both_searches(monkeypatch):
    """Saturated stations make the arrival's chain search and the
    departure's replacement search both run."""
    obs.reset()
    obs.enable()
    try:
        for seed in (3, 11):
            run_dynamic(oracle_spec(seed, **SPECS["tight"]))
        counters = obs.metrics_snapshot().get("counters", {})
    finally:
        obs.disable()
        obs.reset()
    assert counters.get("flow.arrival_searches", 0) > 0
    assert counters.get("flow.departure_searches", 0) > 0


def test_deployment_follows_placement_changes():
    """A stale live assignment is rebuilt on read: changing placements or
    moving users without any call-site invalidation still gives the
    oracle's served count."""
    spec = oracle_spec(7)
    world = WorldState.from_problem(spec.build())
    assert world.evaluate(0.0) == 0
    world.placements = {0: 0, 1: 1}
    assert world.evaluate(1.0) == optimal_assignment(
        world.graph, world.fleet, world.placements
    ).served_count
    world.down.add(1)
    assert world.evaluate(2.0) == optimal_assignment(
        world.graph, world.fleet, {0: 0}
    ).served_count
    world.move_users(world.user_xy() + 25.0)
    assert world.evaluate(3.0) == optimal_assignment(
        world.graph, world.fleet, {0: 0}
    ).served_count
    assert set(world.first_served_s) <= set(world.user_ids)


def solved_world(seed: int) -> WorldState:
    """A world whose placements are a solved, connected deployment of a
    fleet with tight capacities, so most stations are saturated."""
    spec = oracle_spec(seed, num_users=120, num_uavs=5, capacity_min=2,
                       capacity_max=5)
    world = WorldState.from_problem(spec.build())
    world.placements = dict(SolvePipeline().run(spec).deployment.placements)
    assert len(world.active_placements()) == 5
    return world


def oracle_served(world: WorldState) -> int:
    return optimal_assignment(
        world.graph, world.fleet, world.active_placements()
    ).served_count


@pytest.mark.parametrize("seed", [3, 7])
def test_fleet_entry_replaced_rebuilds_on_read(seed):
    """A fleet entry swapped for one with another capacity, with no
    call-site invalidation, is read at the next evaluation."""
    world = solved_world(seed)
    before = world.evaluate(0.0)
    assert before == oracle_served(world)
    for k in sorted(world.placements):
        world.fleet[k] = replace(world.fleet[k],
                                 capacity=world.fleet[k].capacity + 6)
        assert world.evaluate(1.0 + k) == oracle_served(world)
        assert world.deployment().served_count == oracle_served(world)
    assert world.evaluate(9.0) > before


@pytest.mark.parametrize("seed", [3, 7])
def test_degraded_link_added_then_removed_rebuilds_on_read(seed):
    world = solved_world(seed)
    before = world.evaluate(0.0)
    split = 0
    for a, b in combinations(sorted(world.placements), 2):
        world.degraded_links.add((a, b))
        served = world.evaluate(1.0)
        assert served == oracle_served(world)
        split += served != before
        world.degraded_links.discard((a, b))
        assert world.evaluate(2.0) == before == oracle_served(world)
    assert split > 0


@pytest.mark.parametrize("seed", [3, 7])
def test_grounded_uav_restored_rebuilds_on_read(seed):
    world = solved_world(seed)
    before = world.evaluate(0.0)
    for k in sorted(world.placements):
        world.down.add(k)
        served = world.evaluate(1.0)
        assert served == oracle_served(world) < before
        world.down.discard(k)
        assert world.evaluate(2.0) == before == oracle_served(world)


def count_location_graph_builds(monkeypatch) -> list:
    builds: list = []
    original = CoverageGraph._build_location_graph

    def counted(graph):
        builds.append(graph)
        return original(graph)

    monkeypatch.setattr(CoverageGraph, "_build_location_graph", counted)
    return builds


@pytest.mark.parametrize("seed", [3, 11])
def test_warm_mission_builds_its_location_graph_once(monkeypatch, seed):
    """The scenario build makes the one location graph; every solve,
    the first included, runs on the world's graph, which shares it."""
    builds = count_location_graph_builds(monkeypatch)
    result = run_dynamic(oracle_spec(seed), warm=True)
    assert len(result.epochs) >= 3
    assert len(builds) == 1


@pytest.mark.parametrize("seed", [3, 11])
def test_cold_mission_rebuilds_per_solve(monkeypatch, seed):
    builds = count_location_graph_builds(monkeypatch)
    result = run_dynamic(oracle_spec(seed), warm=False)
    assert len(result.epochs) >= 3
    assert len(builds) == 1 + len(result.epochs)
