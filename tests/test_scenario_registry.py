"""Tests for the algorithm registry and the layering it enforces."""

import ast
from pathlib import Path

import pytest

from repro.network.validate import validate_deployment
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.registry import (
    DEFAULT_REGISTRY,
    AlgorithmEntry,
    default_registry,
)


class TestEntries:
    def test_builtin_names(self):
        assert DEFAULT_REGISTRY.names() == sorted([
            "approAlg", "MCS", "MotionCtrl", "GreedyAssign",
            "maxThroughput", "RandomConnected", "Unconstrained",
        ])

    def test_appro_capabilities(self):
        entry = DEFAULT_REGISTRY.get("approAlg")
        assert entry.supports_workers
        assert entry.supports_context
        assert entry.supports_checkpoint

    def test_baselines_have_no_engine_capabilities(self):
        for name in ("MCS", "GreedyAssign", "maxThroughput"):
            entry = DEFAULT_REGISTRY.get(name)
            assert not entry.supports_workers
            assert not entry.supports_context
            assert not entry.supports_checkpoint

    def test_unconstrained_is_connectivity_exempt(self):
        assert not DEFAULT_REGISTRY.get("Unconstrained").requires_connected
        assert DEFAULT_REGISTRY.get("MCS").requires_connected

    def test_entry_requires_name_and_callable(self):
        with pytest.raises(ValueError):
            AlgorithmEntry("", lambda p: None)
        with pytest.raises(TypeError):
            AlgorithmEntry("thing", solve="not-callable")

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="approAlg"):
            DEFAULT_REGISTRY.get("Oracle9000")

    def test_register_rejects_duplicates_unless_replace(self):
        registry = default_registry()
        entry = AlgorithmEntry("approAlg", lambda p: None)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(entry)
        registry.register(entry, replace=True)
        assert registry.get("approAlg") is entry

    def test_container_protocol(self):
        assert "MCS" in DEFAULT_REGISTRY
        assert "Oracle9000" not in DEFAULT_REGISTRY
        assert len(DEFAULT_REGISTRY) == 7
        assert [e.name for e in DEFAULT_REGISTRY] == DEFAULT_REGISTRY.names()


class TestDispatchEquivalence:
    """The pipeline's dispatch produces the same deployments and records
    as a direct registry call for every deterministic solver."""

    DETERMINISTIC = (
        "approAlg", "MCS", "MotionCtrl", "GreedyAssign",
        "maxThroughput", "Unconstrained",
    )

    def test_same_deployments(self, small_scenario):
        pipeline = SolvePipeline(prebuild_context=False)
        for name in self.DETERMINISTIC:
            params = {"s": 2} if name == "approAlg" else {}
            direct = DEFAULT_REGISTRY.get(name).solve(small_scenario, **params)
            state = pipeline.solve(small_scenario, name, params)
            assert state.deployment.placements == direct.placements, name
            assert state.deployment.assignment == direct.assignment, name

    def test_record_equivalence(self, small_scenario):
        pipeline = SolvePipeline()
        for name in self.DETERMINISTIC:
            entry = DEFAULT_REGISTRY.get(name)
            params = {"s": 2} if name == "approAlg" else {}
            record = pipeline.solve(small_scenario, name, params).record
            direct = entry.solve(small_scenario, **params)
            validate_deployment(
                small_scenario.graph, small_scenario.fleet, direct,
                require_connected=entry.requires_connected,
            )
            assert record.algorithm == name
            assert record.served == direct.served_count
            assert record.status == "ok"
            assert record.params == params
            assert record.num_users == small_scenario.num_users
            assert record.num_uavs == small_scenario.num_uavs


class TestLayering:
    """The scenario package sits below repro.sim: no module-level import
    of the sim package."""

    PACKAGE_DIR = Path(__file__).parent.parent / "src" / "repro" / "scenario"

    def test_no_module_level_sim_imports(self):
        assert self.PACKAGE_DIR.is_dir()
        for path in sorted(self.PACKAGE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in tree.body:  # module level only
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                for name in names:
                    assert not name.startswith("repro.sim"), (
                        f"{path.name} imports {name} at module level; the "
                        "scenario layer sits below repro.sim (function-"
                        "level imports of leaf submodules are the allowed "
                        "escape hatch)"
                    )
