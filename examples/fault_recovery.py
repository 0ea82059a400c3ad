"""Fault-injected mission: crash two UAVs, degrade two links, watch it heal.

``repro mission`` runs the dynamics engine on the ``mission-small``
preset: 400 users, six UAVs, two crashes drawn from the spec's derived
``"faults"`` seed, and here two link faults that heal 30 s after they hit.

1. every fault shrinks the network to its largest connected remnant — a
   degraded link between two neighbouring UAVs splits it, and only the
   bigger piece keeps serving;
2. every fault (and every healing) triggers a repair: the physical UAVs
   are paired to a plan for the flyable fleet, which is adopted only if it
   is connected under the degraded links and serves strictly more users.
   The solver never sees links, so after a link change the last plan is
   checked again instead of being solved again (the re-solve table lists
   only real solves);
3. separately, the solver watchdog runs ``approAlg`` under a tiny
   wall-clock budget and falls back through the configured chain instead
   of raising.

Run:  python examples/fault_recovery.py
"""

from repro.core.assignment import optimal_assignment
from repro.dynamics import get_dynamic_preset, run_dynamic
from repro.network.validate import validate_deployment
from repro.ops import residual_connected
from repro.sim.runner import WatchdogConfig, solve_with_fallback
from repro.util.tables import format_table


def main() -> None:
    spec = get_dynamic_preset("mission-small").with_overrides(
        seed=4, num_links=2
    )
    problem = spec.build()

    # --- watchdog: a tiny budget must fall back, not raise -------------
    squeezed = solve_with_fallback(
        problem, WatchdogConfig(params={"approAlg": {"s": 2}}, budget_s=1e-9)
    )
    trail = ", ".join(
        f"{a.algorithm}={a.status}" for a in squeezed.record.attempts
    )
    print("watchdog under a 1 ns budget: answered by "
          f"{squeezed.answered_by} [{trail}]\n")
    assert squeezed.ok, "the fallback chain's last resort must answer"
    assert squeezed.record.attempts[0].status == "timeout"

    # --- the mission ----------------------------------------------------
    result = run_dynamic(spec)
    served_after = {t: served for t, served, _ in result.timeline}
    changes = []
    for t in sorted(served_after):
        if not changes or changes[-1][1] != served_after[t]:
            changes.append((t, served_after[t]))
    print(format_table(
        ["t (s)", "served"],
        [[f"{t:.1f}", served] for t, served in changes],
        title=f"served users over the mission ({result.faults} faults)",
    ))
    print()
    print(format_table(
        ["t (s)", "trigger", "plan serves", "UAVs placed"],
        [[f"{e.t_s:.1f}", e.trigger, e.served, e.num_placed]
         for e in result.epochs],
        title="re-solves",
    ))

    served = [s for _, s in changes]
    assert result.faults == 4
    assert min(served) < served[0], "the faults must cost coverage"
    assert served[-1] > min(served), "a healing must restore coverage"
    final = optimal_assignment(
        problem.graph, problem.fleet, result.final_placements
    )
    validate_deployment(problem.graph, problem.fleet, final)
    assert residual_connected(problem, result.final_placements)
    assert final.served_count == result.final_served
    print(
        f"\nrecovered: served dipped to {min(served)}, ended at "
        f"{result.final_served}/{problem.num_users} — validated and "
        "connected."
    )


if __name__ == "__main__":
    main()
