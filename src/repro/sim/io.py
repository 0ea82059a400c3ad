"""JSON serialisation of deployments.

Field teams (and CI) need to hand a computed deployment to another tool;
this module round-trips the full placement and assignment through plain
JSON.  Scenarios are saved as :class:`~repro.scenario.spec.ScenarioSpec`
documents (:meth:`~repro.scenario.spec.ScenarioSpec.save`).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.network.deployment import Deployment

FORMAT_VERSION = 1


def deployment_to_dict(deployment: Deployment) -> dict:
    return {
        "format": FORMAT_VERSION,
        "kind": "deployment",
        "placements": {str(k): loc for k, loc in deployment.placements.items()},
        "assignment": {str(u): k for u, k in deployment.assignment.items()},
    }


def deployment_from_dict(data: dict) -> Deployment:
    _check(data, "deployment")
    return Deployment(
        placements={int(k): int(v) for k, v in data["placements"].items()},
        assignment={int(u): int(k) for u, k in data["assignment"].items()},
    )


def save_deployment(path: "str | Path", deployment: Deployment) -> None:
    Path(path).write_text(
        json.dumps(deployment_to_dict(deployment), indent=2) + "\n"
    )


def load_deployment(path: "str | Path") -> Deployment:
    return deployment_from_dict(json.loads(Path(path).read_text()))


def _check(data: dict, kind: str) -> None:
    if data.get("kind") != kind:
        raise ValueError(
            f"expected a {kind} file, got kind = {data.get('kind')!r}"
        )
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format version {data.get('format')!r} "
            f"(this build reads {FORMAT_VERSION})"
        )
