"""Mission operations: endurance budget, user mobility, single failures.

Goes beyond the paper's one-shot placement into the operational questions
its system model raises (Section II):

1. batteries are finite — how long can the network stay aloft?
2. trapped users move — how fast does a stale deployment decay, and how
   much does periodic re-deployment (Section II-C) recover?
3. UAVs fail — which single failure hurts most?

Run:  python examples/mission_operations.py
"""

from repro import appro_alg, paper_scenario
from repro.dynamics import DynamicSpec, run_dynamic
from repro.network.energy import EnergyModel, fleet_endurance_s, mission_endurance_s
from repro.sim.render import ascii_map
from repro.util.tables import format_table


def main() -> None:
    problem = paper_scenario(num_users=400, num_uavs=6, scale="small", seed=11)
    planner_kwargs = dict(s=2, gain_mode="fast")

    deployment = appro_alg(problem, **planner_kwargs).deployment
    print("deployment:\n")
    print(ascii_map(problem, deployment, cols=45, rows=12))

    # 1. Endurance: who lands first?
    model = EnergyModel()
    per_uav = fleet_endurance_s(problem.fleet, deployment, model)
    rows = [
        [k, problem.fleet[k].capacity,
         f"{problem.fleet[k].battery_wh:.0f} Wh",
         f"{secs / 60.0:.0f} min"]
        for k, secs in sorted(per_uav.items())
    ]
    print()
    print(format_table(["UAV", "capacity", "battery", "endurance"], rows,
                       title="per-UAV hover endurance"))
    mission_min = mission_endurance_s(problem.fleet, deployment, model) / 60.0
    print(f"\nnetwork endurance (first battery empty): {mission_min:.0f} min "
          "- plan battery swaps accordingly.")

    # 2. Mobility: the same scenario as a mobility-only mission.  The
    # "event" policy never re-plans for mobility (stale); "periodic"
    # re-plans every third step (refreshed).
    mobile = DynamicSpec(
        name="mobility", scale="small", num_users=400, num_uavs=6, seed=11,
        algorithm="approAlg", algorithm_params=planner_kwargs,
        duration_s=300.0, epoch_s=90.0, mobility_step_s=30.0,
        mobility_sigma_m=120.0, arrival_rate_per_s=0.0,
        hotspot_drift_mps=0.0, resolve_policy="event",
    )
    stale = run_dynamic(mobile)
    refreshed = run_dynamic(mobile.with_overrides(resolve_policy="periodic"))

    def per_step(result) -> list:
        """Served users after each mobility step (the last value at t)."""
        after = {t: served for t, served, _ in result.timeline}
        return [after[30.0 * i] for i in range(1, 11)]

    print()
    print(format_table(
        ["step"] + [str(i) for i in range(1, 11)],
        [
            ["event (stale)"] + per_step(stale),
            ["periodic/3"] + per_step(refreshed),
        ],
        title="served users while people move (sigma = 120 m/step)",
    ))
    print(
        f"\nmean coverage: stale {stale.mean_coverage:.3f} vs refreshed "
        f"{refreshed.mean_coverage:.3f} "
        f"({len(refreshed.epochs) - 1} re-deployments)"
    )
    assert len(refreshed.epochs) > len(stale.epochs) == 1

    # 3. Resilience: which single UAV failure hurts most?
    from repro.network.resilience import single_failure_impacts

    impacts = single_failure_impacts(problem, deployment)
    rows = [
        [fi.uav_index, fi.location,
         "yes" if fi.splits_network else "no",
         fi.served_after, fi.served_lost]
        for fi in impacts[:5]
    ]
    print()
    print(format_table(
        ["failed UAV", "location", "splits net?", "served after", "lost"],
        rows,
        title="worst single-UAV failures (top 5)",
    ))
    worst = impacts[0]
    print(
        f"\nUAV {worst.uav_index} is the critical node: protect it, or add "
        "a redundant relay next to it."
    )


if __name__ == "__main__":
    main()
