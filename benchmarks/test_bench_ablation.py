"""Ablation benches for our implementation choices (DESIGN.md §3).

* gain mode — exact (paper-faithful marginal gains) vs fast (direct-bound
  ranking): solution quality should be near-identical, runtime very
  different;
* leftover augmentation — Algorithm 2 as written leaves K - q_j UAVs
  undeployed; our default deploys them greedily;
* capacity order — Algorithm 2 deploys UAVs largest-capacity-first; the
  ablation shuffles the order (what a heterogeneity-unaware variant does);
* anchor pool — restricting anchors to the top-covering locations vs a
  larger pool.

Run at a reduced scale (n = 1200, K = 12) so the exact-gain arm stays
affordable.
"""

from __future__ import annotations

import pytest

from repro.core.approx import appro_alg

N_USERS = 1200
K = 12
S = 2
POOL = 8
TITLE = "Ablations - approAlg variants (n=1200, K=12, s=2)"


@pytest.fixture(scope="module")
def problem(scenario_cache):
    return scenario_cache(N_USERS, K, seed=19)


def _run(problem, **kwargs):
    defaults = dict(
        s=S, max_anchor_candidates=POOL, gain_mode="fast",
        augment_leftover=True,
    )
    defaults.update(kwargs)
    return appro_alg(problem, **defaults)


@pytest.mark.parametrize("gain_mode", ("fast", "exact"))
def test_ablation_gain_mode(benchmark, figure_report, problem, gain_mode):
    result = benchmark.pedantic(
        lambda: _run(problem, gain_mode=gain_mode), rounds=1, iterations=1
    )
    figure_report.record(
        "ablation", TITLE, f"gain={gain_mode}", "approAlg",
        result.served, round(benchmark.stats.stats.mean, 3),
    )
    assert result.served > 0


@pytest.mark.parametrize("augment", (True, False),
                         ids=("leftover-on", "leftover-off"))
def test_ablation_leftover(benchmark, figure_report, problem, augment):
    result = benchmark.pedantic(
        lambda: _run(problem, augment_leftover=augment), rounds=1, iterations=1
    )
    label = "leftover=on" if augment else "leftover=off(paper)"
    figure_report.record(
        "ablation", TITLE, label, "approAlg",
        result.served, round(benchmark.stats.stats.mean, 3),
    )
    assert result.served > 0


def test_ablation_leftover_never_hurts(problem):
    on = _run(problem, augment_leftover=True).served
    off = _run(problem, augment_leftover=False).served
    assert on >= off


@pytest.mark.parametrize("pool", (5, 8, 12))
def test_ablation_anchor_pool(benchmark, figure_report, problem, pool):
    result = benchmark.pedantic(
        lambda: _run(problem, max_anchor_candidates=pool),
        rounds=1,
        iterations=1,
    )
    figure_report.record(
        "ablation", TITLE, f"pool={pool}", "approAlg",
        result.served, round(benchmark.stats.stats.mean, 3),
    )
    assert result.served > 0


def test_ablation_workload_shape(benchmark, figure_report, scenario_cache):
    """Fat-tailed vs uniform users: the heterogeneity advantage the paper
    builds on exists because demand is concentrated; uniform demand gives
    every algorithm an easier, flatter problem."""
    from repro.workload.scenarios import SCALES, build_scenario
    from repro.workload.uniform import UniformWorkload

    fat = scenario_cache(N_USERS, K, seed=19)
    uniform_cfg = SCALES["bench"].with_overrides(
        num_users=N_USERS, num_uavs=K, workload=UniformWorkload()
    )
    uniform = build_scenario(uniform_cfg, seed=19)

    def run_both():
        return (_run(fat).served, _run(uniform).served)

    fat_served, uniform_served = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    figure_report.record("ablation", TITLE, "workload=fat-tailed",
                         "approAlg", fat_served, 0.0)
    figure_report.record("ablation", TITLE, "workload=uniform",
                         "approAlg", uniform_served, 0.0)
    assert fat_served > 0 and uniform_served > 0


def test_ablation_capacity_order(benchmark, figure_report, problem):
    """Deploy UAVs in index order (capacity-unaware) instead of largest-
    first, by handing appro_alg a fleet whose capacities are shuffled so
    the capacity sort is a no-op.  Compares the heterogeneity-awareness
    claim: capacity-sorted deployment should serve at least as many."""
    from repro.core.greedy import anchored_greedy
    from repro.core.connect import connect_and_deploy
    from repro.core.segments import optimal_segments

    plan = optimal_segments(problem.num_uavs, S)
    anchors_pool = sorted(
        range(problem.num_locations),
        key=lambda v: -problem.graph.coverage_count(
            v, problem.fleet[problem.capacity_order()[0]]
        ),
    )[:S]

    def run_with(order):
        greedy = anchored_greedy(problem, anchors_pool, plan, order=order,
                                 gain_mode="fast")
        sol = connect_and_deploy(problem, greedy, order=order,
                                 gain_mode="fast")
        return 0 if sol is None else sol.served

    sorted_order = problem.capacity_order()
    index_order = list(range(problem.num_uavs))
    served_sorted = benchmark.pedantic(
        lambda: run_with(sorted_order), rounds=1, iterations=1
    )
    served_index = run_with(index_order)
    figure_report.record("ablation", TITLE, "order=capacity", "approAlg",
                         served_sorted, 0.0)
    figure_report.record("ablation", TITLE, "order=index", "approAlg",
                         served_index, 0.0)
    assert served_sorted > 0
