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

import pytest

from repro import obs
from repro.core.assignment import optimal_assignment
from repro.dynamics import WorldState, run_dynamic
from repro.network.validate import validate_deployment
from tests.test_dynamics_oracle import oracle_spec

SPECS = {
    "base": {},
    "tight": dict(capacity_min=2, capacity_max=5, arrival_rate_per_s=0.15,
                  mean_dwell_s=60.0),
    "faults": dict(num_crashes=1, num_links=1, relocation_speed_mps=15.0,
                   resolve_policy="drift", drift_threshold=0.05),
    "tight-faults": dict(capacity_min=2, capacity_max=5, num_crashes=1,
                         num_links=1, relocation_speed_mps=15.0),
    "rotation": dict(num_users=8, num_uavs=8, capacity_min=20,
                     capacity_max=20, arrival_rate_per_s=0.0,
                     mobility_sigma_m=0.0, hotspot_drift_mps=0.0,
                     duration_s=5400.0, epoch_s=2700.0, recharge_s=300.0),
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
    seeds = (3, 11, 17, 29) if name != "rotation" else (5, 23)
    for seed in seeds:
        result = run_dynamic(oracle_spec(seed, **SPECS[name]), warm=warm)
        assert result.timeline
    assert checked.calls >= 5 * len(seeds)
    if name == "rotation":
        assert result.rotations > 0
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
