"""The benchmark's pinned workloads: the task each one runs, and the
correctness gate every task's output passes.

Each workload is one JSON file in ``inputs/`` copied from the presets
(README.md lists where they differ), so a later edit to ``PRESETS``
cannot silently change what is measured.  A
task is one call into the program's public entry points with the pinned
input and a per-task scenario seed; :meth:`Workload.run` is the timed
call and :meth:`Workload.check` the untimed gate, which re-validates the
output with the independent validators in :mod:`repro.network.validate`
and digests it so two commits can be checked for identical deployments.

Importing this module imports ``repro`` from the ``src/`` directory of
the checkout the file sits in, and refuses any other copy.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from run import INPUTS, SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import repro  # noqa: E402

if Path(repro.__file__).resolve().parent != SRC / "repro":
    raise ImportError(
        f"imported repro from {repro.__file__}, not from {SRC}; the "
        "benchmark measures the checkout it lives in"
    )

# The validators and the assignment used by the gate are bound here, before
# any tracing wrapper exists, so the gate never records spans and never
# trusts a patched function.
from repro.core.assignment import optimal_assignment  # noqa: E402
from repro.dynamics import DynamicSpec, WorldState, run_dynamic  # noqa: E402
from repro.network.deployment import CellDeployment  # noqa: E402
from repro.network.validate import (  # noqa: E402
    validate_cell_deployment,
    validate_deployment,
)
from repro.scenario.pipeline import SolvePipeline  # noqa: E402
from repro.scenario.spec import ScenarioSpec  # noqa: E402

# Modules the program imports lazily on its first solve, tiled solve or
# cell solve.  Importing them during set-up keeps that one-off cost out of
# the first task's time.
import repro.ops.recovery  # noqa: E402,F401
import repro.scenario.batch  # noqa: E402,F401
import repro.scenario.tiling  # noqa: E402,F401
import repro.sim.results  # noqa: E402,F401
import repro.workload.aggregate  # noqa: E402,F401


class CheckFailed(AssertionError):
    """A task's output is wrong, although the program did not raise."""


class Outcome:
    """What the gate keeps of one checked task: users served, their share
    of the users the fleet could serve at most, and the output digest."""

    __slots__ = ("served", "ratio", "digest")

    def __init__(self, served: int, ratio: float, digest: str):
        self.served = served
        self.ratio = ratio
        self.digest = digest


def deployment_body(deployment) -> dict:
    """Sorted placements plus the assignment (or cell flows)."""
    body = {"placements": sorted(deployment.placements.items())}
    if isinstance(deployment, CellDeployment):
        body["flows"] = sorted(
            [c, k, units] for (c, k), units in deployment.flows.items()
        )
    else:
        body["assignment"] = sorted(deployment.assignment.items())
    return body


def digest(bodies: list) -> str:
    text = json.dumps(bodies, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def validate(problem, deployment, require_connected: bool) -> None:
    check = (
        validate_cell_deployment if isinstance(deployment, CellDeployment)
        else validate_deployment
    )
    check(problem.graph, problem.fleet, deployment,
          require_connected=require_connected)


def servable(users: int, fleet: list) -> int:
    """The trivial upper bound on served users: no more than there are,
    nor more than the fleet's total capacity."""
    return min(users, sum(uav.capacity for uav in fleet))


def served_ratio(problem, served: int) -> float:
    # Cell problems count member units, not cells.
    users = getattr(problem.graph, "total_demand", problem.num_users)
    return served / servable(users, problem.fleet)


class Workload:
    """One pinned workload; subclasses bind it to one entry point."""

    def __init__(self, doc: dict):
        self.doc = doc

    def open(self) -> None:
        """Install what the gate needs to see the output."""

    def close(self) -> None:
        """Undo :meth:`open`."""

    def run(self, seed: int):
        raise NotImplementedError

    def check(self, output) -> Outcome:
        raise NotImplementedError


class PipelineWorkload(Workload):
    """``SolvePipeline().run(spec)``; the problem is built inside the task."""

    def __init__(self, doc: dict):
        super().__init__(doc)
        self.spec = ScenarioSpec.from_dict(doc["spec"])

    def run(self, seed: int):
        return SolvePipeline().run(self.spec.with_overrides(seed=seed))

    def check(self, state) -> Outcome:
        if state.status != "ok" or state.deployment is None:
            raise CheckFailed(f"pipeline status {state.status}: {state.error}")
        validate(state.problem, state.deployment,
                 state.entry.requires_connected)
        served = state.deployment.served_count
        return Outcome(served, served_ratio(state.problem, served),
                       digest([deployment_body(state.deployment)]))


class MissionWorkload(Workload):
    """``run_dynamic(spec)``: one whole mission per task.

    :meth:`open` wraps ``WorldState.from_problem`` to keep a handle on the
    mission's world, whose final state the gate re-assigns and validates.
    """

    def __init__(self, doc: dict):
        super().__init__(doc)
        self.spec = DynamicSpec.from_dict(doc["spec"])

    def open(self) -> None:
        self.worlds: list = []
        self.saved = WorldState.__dict__["from_problem"]
        original = self.saved.__func__

        def from_problem_and_keep(cls, problem):
            world = original(cls, problem)
            self.worlds.append(world)
            return world

        WorldState.from_problem = classmethod(from_problem_and_keep)

    def close(self) -> None:
        WorldState.from_problem = self.saved

    def run(self, seed: int):
        self.worlds.clear()
        return run_dynamic(self.spec.with_overrides(seed=seed))

    def check(self, result) -> Outcome:
        if len(self.worlds) != 1:
            raise CheckFailed(f"{len(self.worlds)} mission worlds, want 1")
        world = self.worlds[0]
        for t, served, active in result.timeline:
            if not 0 <= served <= active:
                raise CheckFailed(f"t={t}: served {served} of {active}")
        final = optimal_assignment(
            world.graph, world.fleet, world.active_placements()
        )
        validate_deployment(world.graph, world.fleet, final)
        if final.served_count != result.final_served:
            raise CheckFailed(
                f"final served {result.final_served}, re-assignment "
                f"serves {final.served_count}"
            )
        ratios = [
            served / servable(active, world.fleet) if active else 1.0
            for _, served, active in result.timeline
        ]
        body = deployment_body(final)
        body["timeline"] = [[t, s, a] for t, s, a in result.timeline]
        return Outcome(result.final_served, sum(ratios) / len(ratios),
                       digest([body]))


ENTRIES = {
    "pipeline": PipelineWorkload,
    "run_dynamic": MissionWorkload,
}


def load(name: str) -> Workload:
    doc = json.loads((INPUTS / f"{name}.json").read_text())
    return ENTRIES[doc["entry"]](doc)
