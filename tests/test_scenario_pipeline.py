"""Tests for the staged SolvePipeline (stages, swapping, error capture)."""

import pytest

from repro import obs
from repro.scenario.pipeline import DEFAULT_STAGES, PipelineState, SolvePipeline
from repro.scenario.registry import AlgorithmEntry, default_registry
from repro.scenario.spec import ScenarioSpec

SPEC = ScenarioSpec(
    name="pipeline-test", scale="small", num_users=200, num_uavs=5,
    seed=9, algorithm="approAlg", algorithm_params={"s": 2},
)


class TestStages:
    def test_default_stage_order(self):
        assert SolvePipeline().stage_names() == (
            "build", "context", "solve", "validate", "report"
        )

    def test_duplicate_stage_names_rejected(self):
        stages = tuple(DEFAULT_STAGES) + (("build", lambda s: s),)
        with pytest.raises(ValueError, match="duplicate"):
            SolvePipeline(stages=stages)

    def test_run_populates_state(self):
        state = SolvePipeline().run(SPEC)
        assert state.ok
        assert state.problem is not None
        assert state.deployment is not None
        assert state.context is not None          # approAlg is context-aware
        assert state.record.algorithm == "approAlg"
        assert state.record.served == state.served > 0
        assert state.report["status"] == "ok"

    def test_context_prebuild_is_lossless(self):
        with_context = SolvePipeline(prebuild_context=True).run(SPEC)
        without = SolvePipeline(prebuild_context=False).run(SPEC)
        assert without.context is None
        assert with_context.deployment.placements == without.deployment.placements
        assert with_context.deployment.assignment == without.deployment.assignment

    def test_context_skipped_for_unaware_algorithms(self):
        state = SolvePipeline().run(
            SPEC.with_overrides(algorithm="MCS", algorithm_params={})
        )
        assert state.ok
        assert state.context is None

    def test_unknown_algorithm_raises_before_any_stage(self):
        with pytest.raises(KeyError, match="Oracle9000"):
            SolvePipeline().run(SPEC.with_overrides(algorithm="Oracle9000"))

    def test_engine_options_gated_by_capabilities(self):
        # workers on a baseline spec must NOT reach the solver (MCS would
        # reject the kwarg).
        state = SolvePipeline().run(SPEC.with_overrides(
            algorithm="MCS", algorithm_params={}, workers=2,
        ))
        assert state.ok
        assert "workers" not in state.params


class TestStageSwap:
    def test_with_stage_replaces_one_stage(self):
        seen = {}

        def spy_report(state: PipelineState) -> PipelineState:
            seen["served"] = state.served
            state.report = {"custom": True}
            return state

        pipeline = SolvePipeline().with_stage("report", spy_report)
        state = pipeline.run(SPEC)
        assert state.report == {"custom": True}
        assert seen["served"] == state.served
        assert state.record is None               # default report replaced

    def test_with_stage_returns_new_pipeline(self):
        base = SolvePipeline()
        swapped = base.with_stage("report", lambda s: s)
        assert base.stages != swapped.stages
        assert base.stage_names() == swapped.stage_names()

    def test_with_stage_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown stage"):
            SolvePipeline().with_stage("deploy", lambda s: s)

    def test_swapped_build_stage_can_inject_problem(self, small_scenario):
        def canned_build(state: PipelineState) -> PipelineState:
            state.problem = small_scenario
            return state

        pipeline = SolvePipeline().with_stage("build", canned_build)
        state = pipeline.run(SPEC)
        assert state.problem is small_scenario
        assert state.ok


class TestErrorCapture:
    @staticmethod
    def _registry_with(name, fn, **flags):
        registry = default_registry()
        registry.register(AlgorithmEntry(name, fn, **flags))
        return registry

    def test_strict_raises(self):
        def boom(problem, **kw):
            raise RuntimeError("kaputt")

        registry = self._registry_with("Boom", boom)
        pipeline = SolvePipeline(registry=registry, strict=True)
        with pytest.raises(RuntimeError, match="kaputt"):
            pipeline.run(SPEC.with_overrides(
                algorithm="Boom", algorithm_params={}
            ))

    def test_non_strict_captures_error(self):
        def boom(problem, **kw):
            raise RuntimeError("kaputt")

        registry = self._registry_with("Boom", boom)
        pipeline = SolvePipeline(registry=registry, strict=False)
        state = pipeline.run(SPEC.with_overrides(
            algorithm="Boom", algorithm_params={}
        ))
        assert state.status == "error"
        assert "kaputt" in state.error
        assert state.record.served == 0
        assert state.record.status == "error"

    def test_non_strict_captures_invalid_deployment(self):
        from repro.network.deployment import Deployment

        def disconnected(problem, **kw):
            # Two far-apart occupied locations: valid assignment-wise but
            # certainly not a connected UAV network.
            return Deployment(
                placements={0: 0, 1: problem.num_locations - 1},
                assignment={},
            )

        registry = self._registry_with("Splitter", disconnected)
        pipeline = SolvePipeline(registry=registry, strict=False)
        state = pipeline.run(SPEC.with_overrides(
            algorithm="Splitter", algorithm_params={}
        ))
        assert state.status == "invalid"
        assert state.record.status == "invalid"

    def test_validate_false_skips_validation(self):
        from repro.network.deployment import Deployment

        def disconnected(problem, **kw):
            return Deployment(
                placements={0: 0, 1: problem.num_locations - 1},
                assignment={},
            )

        registry = self._registry_with("Splitter", disconnected)
        pipeline = SolvePipeline(registry=registry, strict=False)
        state = pipeline.run(SPEC.with_overrides(
            algorithm="Splitter", algorithm_params={}, validate=False,
        ))
        assert state.status == "ok"


class TestObservability:
    def test_legacy_metric_names_preserved(self):
        """The pipeline's solve stage emits the exact metric/span names the
        legacy runner did, so dashboards and traces carry over."""
        obs.reset()
        obs.enable()
        try:
            SolvePipeline().run(SPEC)
            spans = obs.drain_spans()
            metrics = obs.metrics_snapshot()
        finally:
            obs.disable()
            obs.reset()
        names = {span.name for span in spans}
        assert "runner.solve" in names
        assert {"pipeline.build", "pipeline.context", "pipeline.solve",
                "pipeline.validate", "pipeline.report"} <= names
        assert metrics["counters"]["runner.solves"] == 1
        assert "runner.solve_seconds" in metrics["histograms"]
