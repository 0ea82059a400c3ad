"""Tests for the algorithm registry and the layering it enforces."""

import ast
from pathlib import Path

import pytest

import repro.sim.runner as runner
from repro.scenario.registry import (
    DEFAULT_REGISTRY,
    AlgorithmEntry,
    AlgorithmRegistry,
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
        assert entry.cooperative
        assert entry.watchdog_tier == 0

    def test_baselines_have_no_engine_capabilities(self):
        for name in ("MCS", "GreedyAssign", "maxThroughput"):
            entry = DEFAULT_REGISTRY.get(name)
            assert not entry.supports_workers
            assert not entry.supports_context
            assert not entry.cooperative

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


class TestRunnerViews:
    """sim.runner's dispatch tables are views of this registry."""

    def test_algorithms_table_matches(self):
        assert runner.ALGORITHMS == DEFAULT_REGISTRY.callables()

    def test_algorithms_table_is_independent_mutable_copy(self):
        table = DEFAULT_REGISTRY.callables()
        table["Stub"] = lambda p: None
        assert "Stub" not in DEFAULT_REGISTRY
        assert "Stub" not in runner.ALGORITHMS

    def test_unconnected_ok_view(self):
        assert runner._UNCONNECTED_OK == frozenset({"Unconstrained"})
        assert runner._UNCONNECTED_OK == DEFAULT_REGISTRY.unconnected_ok()

    def test_cooperative_view(self):
        assert runner._COOPERATIVE == frozenset({"approAlg"})
        assert runner._COOPERATIVE == DEFAULT_REGISTRY.cooperative()

    def test_fallback_chain_ordered_by_tier(self):
        assert DEFAULT_REGISTRY.fallback_chain() == (
            "approAlg", "MCS", "GreedyAssign"
        )
        assert runner.DEFAULT_FALLBACK_CHAIN == (
            "approAlg", "MCS", "GreedyAssign"
        )


class TestDispatchEquivalence:
    """Registry dispatch produces the same deployments as the legacy
    run_algorithm table for every deterministic solver."""

    DETERMINISTIC = (
        "approAlg", "MCS", "MotionCtrl", "GreedyAssign",
        "maxThroughput", "Unconstrained",
    )

    def test_same_deployments(self, small_scenario):
        for name in self.DETERMINISTIC:
            params = {"s": 2} if name == "approAlg" else {}
            via_registry = DEFAULT_REGISTRY.get(name).solve(
                small_scenario, **params
            )
            via_legacy = runner.ALGORITHMS[name](small_scenario, **params)
            assert via_registry.placements == via_legacy.placements, name
            assert via_registry.assignment == via_legacy.assignment, name

    def test_record_equivalence(self, small_scenario):
        from repro.scenario.pipeline import SolvePipeline

        pipeline = SolvePipeline(prebuild_context=False)
        for name in self.DETERMINISTIC:
            params = {"s": 2} if name == "approAlg" else {}
            record = pipeline.solve(small_scenario, name, params).record
            legacy = runner.run_algorithm(small_scenario, name, **params)
            assert record.algorithm == legacy.algorithm
            assert record.served == legacy.served
            assert record.status == legacy.status
            assert record.params == legacy.params


class TestLayering:
    """The scenario package sits below repro.sim: no module-level import
    of the sim package (the grep lint in CI enforces the run_algorithm
    half of this; here we check the whole package boundary)."""

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

    def test_never_calls_run_algorithm(self):
        for path in sorted(self.PACKAGE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    imported = [alias.name for alias in node.names]
                    assert "run_algorithm" not in imported, path.name
                if isinstance(node, ast.Attribute):
                    assert node.attr != "run_algorithm", path.name
