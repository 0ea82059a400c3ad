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
from repro.network.energy import EnergyModel, fleet_endurance_s, mission_endurance_s
from repro.sim.mobility import GaussianWalk, compare_policies
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

    # 2. Mobility: stale vs periodically refreshed placement.
    stale, refreshed = compare_policies(
        problem,
        planner=lambda p: appro_alg(p, **planner_kwargs).deployment,
        steps=10,
        redeploy_every=3,
        mobility=GaussianWalk(sigma_m=120.0),
        seed=4,
    )
    print()
    print(format_table(
        ["step"] + [str(i) for i in range(1, len(stale.served) + 1)],
        [
            ["stale"] + stale.served,
            ["refresh/3"] + refreshed.served,
        ],
        title="served users while people move (sigma = 120 m/step)",
    ))
    print(
        f"\nmean served: stale {stale.mean_served:.0f} vs refreshed "
        f"{refreshed.mean_served:.0f} "
        f"({refreshed.redeploys - 1} re-deployments)"
    )

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
