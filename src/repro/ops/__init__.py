"""Fault injection for missions and for the solver process (extension).

The paper plans one deployment for a disaster area; this package supplies
the failures that test keeping it alive:

* :mod:`repro.ops.faults` — deterministic failure injection
  (:class:`FaultSchedule`): UAV crashes, battery depletions and inter-UAV
  link degradations on a mission timeline, which the dynamics engine
  (:func:`repro.dynamics.run_dynamic`) drains;
* :mod:`repro.ops.recovery` — connectivity of the deployed network once
  degraded links are subtracted (:func:`uav_components`,
  :func:`residual_connected`).

The solver watchdog itself lives with the algorithm registry in
:mod:`repro.sim.runner` (``solve_with_fallback``).

:mod:`repro.ops.chaos` targets the *solver process* rather than the
mission: it injects deterministic worker kills / exceptions / delays into
the parallel subset fan-out, exercising the fault-tolerant dispatch and
checkpoint/resume machinery of :mod:`repro.core.dispatch` and
:mod:`repro.core.checkpoint` (see ``docs/RESILIENCE.md``).
"""

from repro.ops.chaos import ChaosError, ChaosEvent, ChaosSpec
from repro.ops.faults import BATTERY, CRASH, LINK, Fault, FaultSchedule
from repro.ops.recovery import residual_connected, uav_components

__all__ = [
    "BATTERY",
    "CRASH",
    "LINK",
    "ChaosError",
    "ChaosEvent",
    "ChaosSpec",
    "Fault",
    "FaultSchedule",
    "residual_connected",
    "uav_components",
]
