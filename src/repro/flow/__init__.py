"""Max-flow substrate.

:mod:`repro.flow.dinic` is a general integral max-flow solver (Dinic's
algorithm) used to solve the Section II-D assignment flow network exactly.
:mod:`repro.flow.bipartite` specialises the user-to-UAV assignment into an
incremental engine (``open``, count-only ``gain`` probes, a
``fork``/``rollback_fork`` undo scope), which Algorithm 2's greedy uses
to evaluate thousands of marginal gains without rebuilding the flow
network.
"""

from repro.flow.bipartite import IncrementalAssignment
from repro.flow.dinic import Dinic

__all__ = ["Dinic", "IncrementalAssignment"]
