"""Experiment harness: algorithm registry, sweep runners and result tables
for regenerating every figure of the paper's Section IV."""

from repro.sim.compare import PairedComparison, compare_algorithms
from repro.sim.experiments import fig4_sweep, fig5_sweep, fig6_sweep
from repro.sim.metrics import DeploymentMetrics, summarize
from repro.sim.mobility import GaussianWalk
from repro.sim.planning import coverage_curve, uavs_needed_for_target
from repro.sim.relocation import naive_relocation, plan_relocation
from repro.sim.render import ascii_map
from repro.sim.report import deployment_report
from repro.sim.results import RunRecord, SweepResult
from repro.sim.rotation import max_sustainable_mission_s, plan_rotation
from repro.sim.runner import ALGORITHMS

__all__ = [
    "PairedComparison",
    "compare_algorithms",
    "coverage_curve",
    "uavs_needed_for_target",
    "naive_relocation",
    "plan_relocation",
    "deployment_report",
    "max_sustainable_mission_s",
    "plan_rotation",
    "fig4_sweep",
    "fig5_sweep",
    "fig6_sweep",
    "DeploymentMetrics",
    "summarize",
    "GaussianWalk",
    "ascii_map",
    "RunRecord",
    "SweepResult",
    "ALGORITHMS",
]
