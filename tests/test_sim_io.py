"""Tests for JSON serialisation of deployments."""

import pytest

from repro.core.approx import appro_alg
from repro.sim.io import (
    deployment_from_dict,
    deployment_to_dict,
    load_deployment,
    save_deployment,
)


class TestDeploymentRoundTrip:
    def test_dict_round_trip(self, small_scenario):
        result = appro_alg(small_scenario, s=2, gain_mode="fast")
        data = deployment_to_dict(result.deployment)
        restored = deployment_from_dict(data)
        assert restored.placements == result.deployment.placements
        assert restored.assignment == result.deployment.assignment

    def test_file_round_trip(self, tmp_path, small_scenario):
        result = appro_alg(small_scenario, s=2, gain_mode="fast")
        path = tmp_path / "deployment.json"
        save_deployment(path, result.deployment)
        restored = load_deployment(path)
        assert restored.served_count == result.served
        assert restored.placements == result.deployment.placements

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="expected a deployment"):
            deployment_from_dict({"kind": "scenario", "format": 1})
