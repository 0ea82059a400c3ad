"""Operational deployment reports (extension): one text artefact that
composes everything an operator needs before launching the fleet —
coverage metrics, per-UAV loads, endurance, worst failures, spectrum
needs, and an ASCII map.
"""

from __future__ import annotations

from repro.channel.interference import audit_interference
from repro.core.problem import ProblemInstance
from repro.network.deployment import Deployment
from repro.network.energy import EnergyModel, fleet_endurance_s
from repro.network.resilience import single_failure_impacts
from repro.network.spectrum import allocate_channels
from repro.sim.metrics import summarize
from repro.sim.render import ascii_map
from repro.util.tables import format_table


def deployment_report(
    problem: ProblemInstance,
    deployment: Deployment,
    energy_model: "EnergyModel | None" = None,
    include_map: bool = True,
) -> str:
    """A multi-section plain-text report for one deployment."""
    sections = []
    metrics = summarize(problem, deployment)
    sections.append(
        "== coverage ==\n"
        f"served {metrics.served}/{problem.num_users} users "
        f"({metrics.served_fraction:.0%}) with {metrics.num_deployed} UAVs; "
        f"throughput {metrics.throughput_bps / 1e6:.1f} Mbps; capacity "
        f"utilisation {metrics.capacity_utilisation:.0%}; load fairness "
        f"{metrics.load_fairness:.2f}"
    )

    if deployment.placements:
        model = energy_model if energy_model is not None else EnergyModel()
        endurance = fleet_endurance_s(problem.fleet, deployment, model)
        loads = deployment.loads()
        rows = [
            [
                k,
                deployment.placements[k],
                problem.fleet[k].capacity,
                loads[k],
                f"{endurance[k] / 60:.0f} min",
            ]
            for k in sorted(deployment.placements)
        ]
        sections.append(format_table(
            ["UAV", "location", "capacity", "load", "endurance"],
            rows,
            title="== fleet ==",
        ))

        impacts = single_failure_impacts(problem, deployment)
        worst = impacts[:3]
        rows = [
            [
                fi.uav_index,
                "yes" if fi.splits_network else "no",
                fi.served_lost,
            ]
            for fi in worst
        ]
        sections.append(format_table(
            ["failed UAV", "splits network", "users lost"],
            rows,
            title="== worst single failures ==",
        ))

        plan = allocate_channels(problem, deployment)
        audit = audit_interference(problem, deployment, channel_plan=plan)
        sections.append(
            "== spectrum ==\n"
            f"{plan.num_channels} channel(s) orthogonalise coupled "
            f"neighbours; {audit.still_satisfied}/{audit.served} links meet "
            "their QoS under residual interference "
            f"(mean SINR loss {audit.mean_sinr_loss_db:.1f} dB)"
        )

    if include_map:
        sections.append("== map ==\n" + ascii_map(problem, deployment))
    return "\n\n".join(sections)
