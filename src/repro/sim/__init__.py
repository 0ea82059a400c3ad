"""Experiment harness: sweep runners and result tables for regenerating
every figure of the paper's Section IV (each sweep is a list of
``ScenarioSpec`` rows run through :class:`repro.scenario.batch.BatchRunner`)."""

from repro.sim.compare import PairedComparison, compare_algorithms
from repro.sim.experiments import fig4_sweep, fig5_sweep, fig6_sweep
from repro.sim.metrics import DeploymentMetrics, summarize
from repro.sim.mobility import GaussianWalk
from repro.sim.planning import coverage_curve, uavs_needed_for_target
from repro.sim.relocation import naive_relocation, plan_relocation
from repro.sim.render import ascii_map
from repro.sim.report import deployment_report
from repro.sim.results import RunRecord, SweepResult

__all__ = [
    "PairedComparison",
    "compare_algorithms",
    "coverage_curve",
    "uavs_needed_for_target",
    "naive_relocation",
    "plan_relocation",
    "deployment_report",
    "fig4_sweep",
    "fig5_sweep",
    "fig6_sweep",
    "DeploymentMetrics",
    "summarize",
    "GaussianWalk",
    "ascii_map",
    "RunRecord",
    "SweepResult",
]
