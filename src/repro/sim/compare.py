"""Paired statistical comparison of placement algorithms (extension).

A single seed can flatter either side; this module runs two algorithms on
the *same* sequence of random scenarios (paired design: one pair of
``ScenarioSpec`` rows per repetition, run by the experiment grid) and
tests whether the served-user difference is real, using a paired sign test
and a paired permutation test — both implemented from scratch (scipy is a
test oracle only elsewhere in this repo; here the statistics are simple
enough to own).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.scenario.spec import ScenarioSpec
from repro.sim.experiments import run_grid
from repro.util.rng import ensure_rng, spawn_seeds


@dataclass
class PairedComparison:
    """Outcome of a paired A-vs-B run."""

    algorithm_a: str
    algorithm_b: str
    served_a: list = field(default_factory=list)
    served_b: list = field(default_factory=list)
    wins_a: int = 0
    wins_b: int = 0
    ties: int = 0
    mean_diff: float = 0.0          # mean(A - B)
    sign_test_p: float = 1.0        # two-sided
    permutation_p: float = 1.0      # two-sided, sign-flip permutation

    @property
    def n(self) -> int:
        return len(self.served_a)


def _binomial_two_sided_p(wins: int, trials: int) -> float:
    """Exact two-sided sign-test p-value under P(win) = 1/2 (ties dropped
    before calling)."""
    if trials == 0:
        return 1.0
    k = max(wins, trials - wins)
    tail = sum(math.comb(trials, i) for i in range(k, trials + 1))
    return min(1.0, 2.0 * tail / (2 ** trials))


def _sign_flip_permutation_p(
    diffs: list, iterations: int, rng: np.random.Generator
) -> float:
    """Two-sided paired permutation test: under H0 the sign of each paired
    difference is arbitrary; compare |mean| against the flip distribution."""
    arr = np.asarray(diffs, dtype=float)
    if arr.size == 0 or np.allclose(arr, 0.0):
        return 1.0
    observed = abs(arr.mean())
    signs = rng.choice((-1.0, 1.0), size=(iterations, arr.size))
    permuted = np.abs((signs * arr).mean(axis=1))
    # Add-one smoothing keeps the estimate conservative.
    return float((np.sum(permuted >= observed - 1e-12) + 1) / (iterations + 1))


def compare_algorithms(
    algorithm_a: str,
    algorithm_b: str,
    repetitions: int = 10,
    num_users: int = 800,
    num_uavs: int = 10,
    scale: str = "bench",
    seed: int = 101,
    params_a: "dict | None" = None,
    params_b: "dict | None" = None,
    permutation_iterations: int = 5000,
) -> PairedComparison:
    """Run both algorithms on ``repetitions`` paired random scenarios and
    test the served-user difference.

    ``params_a`` / ``params_b`` are forwarded to the algorithms (e.g.
    ``{"s": 2, "gain_mode": "fast"}`` for approAlg).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    rows: list = []
    for rep, rep_seed in enumerate(spawn_seeds(seed, repetitions)):
        for algorithm, params in ((algorithm_a, params_a),
                                  (algorithm_b, params_b)):
            rows.append((rep, ScenarioSpec(
                scale=scale, num_users=num_users, num_uavs=num_uavs,
                seed=rep_seed, algorithm=algorithm,
                algorithm_params=dict(params or {}),
            )))
    served = [record.served
              for _, record in run_grid("compare", "rep", rows).records]
    result = PairedComparison(
        algorithm_a=algorithm_a, algorithm_b=algorithm_b,
        served_a=served[0::2], served_b=served[1::2],
    )
    for served_a, served_b in zip(result.served_a, result.served_b):
        if served_a > served_b:
            result.wins_a += 1
        elif served_b > served_a:
            result.wins_b += 1
        else:
            result.ties += 1

    diffs = [a - b for a, b in zip(result.served_a, result.served_b)]
    result.mean_diff = float(np.mean(diffs))
    decisive = result.wins_a + result.wins_b
    result.sign_test_p = _binomial_two_sided_p(result.wins_a, decisive)
    result.permutation_p = _sign_flip_permutation_p(
        diffs, permutation_iterations, ensure_rng(seed + 1)
    )
    return result
