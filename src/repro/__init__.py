"""repro — reproduction of "Coverage Maximization of Heterogeneous UAV
Networks" (Li, Xiang, Xu et al., IEEE ICDCS 2023).

Public API quick map:

* :func:`repro.core.appro_alg` — the paper's O(sqrt(s/K))-approximation
  (Algorithm 2) for the maximum connected coverage problem;
* :func:`repro.core.optimal_assignment` — exact user assignment for fixed
  placements (Section II-D);
* :mod:`repro.baselines` — MCS, MotionCtrl, GreedyAssign, maxThroughput;
* :func:`repro.workload.paper_scenario` — the Section IV-A experimental
  scenario at several scales;
* :mod:`repro.sim` — sweep drivers regenerating Figs. 4, 5, 6(a), 6(b).

See README.md for a quickstart and DESIGN.md for the full system map.
"""

from repro.core.approx import ApproxResult, appro_alg
from repro.core.assignment import optimal_assignment
from repro.core.problem import ProblemInstance
from repro.core.ratio import approximation_ratio
from repro.core.segments import optimal_segments
from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.network.fleet import heterogeneous_fleet, homogeneous_fleet
from repro.network.uav import UAV
from repro.network.users import User, UserTable, users_from_points
from repro.network.validate import validate_deployment
from repro.workload.scenarios import ScenarioConfig, build_scenario, paper_scenario

__version__ = "1.0.0"

__all__ = [
    "ApproxResult",
    "appro_alg",
    "optimal_assignment",
    "ProblemInstance",
    "approximation_ratio",
    "optimal_segments",
    "CoverageGraph",
    "Deployment",
    "heterogeneous_fleet",
    "homogeneous_fleet",
    "UAV",
    "User",
    "UserTable",
    "users_from_points",
    "validate_deployment",
    "ScenarioConfig",
    "build_scenario",
    "paper_scenario",
    "__version__",
]
