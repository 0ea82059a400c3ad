"""End-to-end integration tests across modules: scenario building, all
algorithms, validation, and the paper's qualitative claims at small scale."""


from repro.core.approx import appro_alg
from repro.core.assignment import max_served
from repro.core.ratio import approximation_ratio
from repro.network.validate import validate_deployment
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.registry import DEFAULT_REGISTRY
from repro.util.tables import format_table


class TestEndToEnd:
    def test_all_algorithms_on_small_scenario(self, small_scenario):
        records = {}
        pipeline = SolvePipeline()
        for name in DEFAULT_REGISTRY.names():
            params = {"s": 2, "gain_mode": "fast"} if name == "approAlg" else {}
            records[name] = pipeline.solve(small_scenario, name, params).record
        # The pipeline validated every deployment; basic ordering checks:
        assert records["approAlg"].served >= records["RandomConnected"].served
        assert records["Unconstrained"].served >= max(
            rec.served
            for name, rec in records.items()
            if name != "Unconstrained"
        )

    def test_appro_alg_end_to_end_moderate(self, bench_scenario):
        result = appro_alg(
            bench_scenario, s=2, max_anchor_candidates=6, gain_mode="fast"
        )
        validate_deployment(
            bench_scenario.graph, bench_scenario.fleet, result.deployment
        )
        # The declared served count must equal an independent recount.
        recount = max_served(
            bench_scenario.graph,
            bench_scenario.fleet,
            result.deployment.placements,
        )
        assert result.served == recount
        # Theoretical ratio exists and the solution is non-trivial.
        assert approximation_ratio(bench_scenario.num_uavs, 2) > 0
        assert result.served > 0.3 * bench_scenario.num_users

    def test_more_uavs_serve_more(self):
        """Fig. 4's qualitative shape at small scale."""
        from repro.workload.scenarios import paper_scenario

        served = []
        for k in (2, 4, 6):
            problem = paper_scenario(
                num_users=250, num_uavs=k, scale="small", seed=17
            )
            result = appro_alg(problem, s=2, gain_mode="fast")
            served.append(result.served)
        assert served[0] <= served[1] <= served[2]

    def test_more_users_more_served(self):
        """Fig. 5's qualitative shape at small scale."""
        from repro.workload.scenarios import paper_scenario

        served = []
        for n in (100, 200, 300):
            problem = paper_scenario(
                num_users=n, num_uavs=5, scale="small", seed=23
            )
            served.append(appro_alg(problem, s=2, gain_mode="fast").served)
        assert served[0] <= served[1] <= served[2]

    def test_s_improves_solution(self, small_scenario):
        """Fig. 6(a)'s qualitative shape: larger s never hurts much and
        typically helps (monotone up to small noise)."""
        s1 = appro_alg(small_scenario, s=1, gain_mode="fast").served
        s2 = appro_alg(small_scenario, s=2, gain_mode="fast").served
        s3 = appro_alg(small_scenario, s=3, gain_mode="fast").served
        assert s2 >= 0.95 * s1
        assert s3 >= 0.95 * s1

    def test_loads_respect_heterogeneous_capacities(self, small_scenario):
        result = appro_alg(small_scenario, s=2, gain_mode="fast")
        for k, load in result.deployment.loads().items():
            assert load <= small_scenario.fleet[k].capacity

    def test_table_rendering_of_real_run(self, small_scenario):
        rec = SolvePipeline().solve(small_scenario, "MCS").record
        table = format_table(
            ["algorithm", "served"], [[rec.algorithm, rec.served]]
        )
        assert "MCS" in table
