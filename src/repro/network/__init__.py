"""Network model: heterogeneous UAVs, ground users, the coverage graph
``G = (U ∪ V, E)`` of Section II-C, and deployment objects with an
independent feasibility validator.
"""

from repro.network.coverage import CoverageGraph
from repro.network.deployment import Deployment
from repro.network.energy import EnergyModel, mission_endurance_s
from repro.network.fleet import heterogeneous_fleet, homogeneous_fleet
from repro.network.uav import UAV
from repro.network.users import User, UserTable, users_from_points
from repro.network.validate import ValidationError, validate_deployment

__all__ = [
    "CoverageGraph",
    "Deployment",
    "EnergyModel",
    "mission_endurance_s",
    "heterogeneous_fleet",
    "homogeneous_fleet",
    "UAV",
    "User",
    "UserTable",
    "users_from_points",
    "ValidationError",
    "validate_deployment",
]
