"""The paper's primary contribution: the O(sqrt(s/K))-approximation
algorithm for the maximum connected coverage problem (Section III), its
subroutines, and an exact brute-force reference for tiny instances.
"""

from repro.core.approx import ApproxResult, ApproxStats, appro_alg
from repro.core.assignment import optimal_assignment
from repro.core.context import SolverContext
from repro.core.exact import exact_optimum
from repro.core.problem import ProblemInstance
from repro.core.ratio import approximation_ratio, l1_of
from repro.core.segments import (
    SegmentPlan,
    hmax_of,
    optimal_segments,
    q_bounds,
    relay_bound,
)

__all__ = [
    "ApproxResult",
    "ApproxStats",
    "SolverContext",
    "appro_alg",
    "optimal_assignment",
    "exact_optimum",
    "ProblemInstance",
    "approximation_ratio",
    "l1_of",
    "SegmentPlan",
    "hmax_of",
    "optimal_segments",
    "q_bounds",
    "relay_bound",
]
