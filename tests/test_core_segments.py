"""Tests for Eq. 1, Eq. 2 and Algorithm 1 (repro.core.segments)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import (
    hmax_of,
    optimal_segments,
    q_bounds,
    relay_bound,
)
from tests.reference.segments import brute_force_segments


class TestHmax:
    def test_paper_example(self):
        # Fig. 2(d): p = (1, 2, 2, 2), s = 3 -> hmax = 2.
        assert hmax_of([1, 2, 2, 2]) == 2

    def test_middle_segments_halved(self):
        # Middle segments are reached from both ends: ceil(p/2).
        assert hmax_of([0, 5, 0]) == 3
        assert hmax_of([0, 4, 0]) == 2

    def test_ends_full(self):
        assert hmax_of([5, 0, 0]) == 5
        assert hmax_of([0, 0, 5]) == 5

    def test_s_equals_one(self):
        # p = (p1, p2) only; no middle segments.
        assert hmax_of([3, 7]) == 7

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hmax_of([3])
        with pytest.raises(ValueError):
            hmax_of([1, -1, 1])


class TestQBounds:
    def test_paper_example(self):
        # Section III-C worked example: L = 10, p = (1, 2, 2, 2):
        # Q0 = 10, Q1 = 7, Q2 = 1.
        assert q_bounds(10, [1, 2, 2, 2]) == [10, 7, 1]

    def test_q1_is_interior_count(self):
        # Q1 always equals sum(p) (= L - s when p is a full split).
        for p in ([1, 2, 2, 2], [3, 0, 1], [4, 4]):
            assert q_bounds(sum(p) + 5, p)[1] == sum(p)

    def test_zero_interior_has_only_q0(self):
        # hmax = 0 when all segments are empty: only Q0 exists.
        assert q_bounds(5, [0, 0]) == [5]

    def test_non_increasing(self):
        for p in ([1, 2, 2, 2], [5, 3, 4, 0, 2], [2, 2], [0, 7, 0]):
            q = q_bounds(sum(p) + len(p) - 1, p)
            assert all(a >= b for a, b in zip(q, q[1:]))

    def test_rejects_oversized_p(self):
        with pytest.raises(ValueError, match="sum"):
            q_bounds(3, [2, 2, 2])

    @given(st.lists(st.integers(0, 8), min_size=2, max_size=6))
    @settings(max_examples=60)
    def test_matches_direct_counting(self, p):
        """Q_h must equal counting nodes at >= h hops in an explicit path:
        p1 end nodes at hops 1..p1 from anchor 1, middle segments reached
        from both adjacent anchors, p_{s+1} from the last anchor."""
        length = sum(p) + len(p) - 1
        q = q_bounds(length, p)
        # Build explicit hop distances of the L path nodes.
        hops = [0] * (len(p) - 1)  # the anchors
        hops += list(range(1, p[0] + 1))          # first end segment
        for pi in p[1:-1]:                        # middle segments
            hops += [min(i + 1, pi - i) for i in range(pi)]
        hops += list(range(1, p[-1] + 1))         # last end segment
        for h, q_h in enumerate(q):
            assert q_h == sum(1 for d in hops if d >= h), (
                f"Q_{h} mismatch for p = {p}"
            )


class TestRelayBound:
    def test_paper_structure(self):
        # g(L, p) for p = (1, 2, 2, 2), s = 3:
        # s + (p2 + p3) + end(1) + middle(2) + middle(2) + end(2)
        # = 3 + 4 + 1 + 2 + 2 + 3 = 15.
        assert relay_bound([1, 2, 2, 2]) == 15

    def test_zero_interior(self):
        # Just the anchors: g = s.
        assert relay_bound([0, 0, 0, 0]) == 3
        assert relay_bound([0, 0]) == 1

    def test_middle_cost_integrality(self):
        for p in range(0, 30):
            assert relay_bound([0, p, 0]) == 2 + p + (p * p + 2 * p + p % 2) // 4

    @given(st.lists(st.integers(0, 10), min_size=2, max_size=6))
    def test_at_least_l(self, p):
        """g counts every sub-path node plus relays, so g >= s + interior
        nodes counted once: g >= max(s, ...) and specifically >= s."""
        s = len(p) - 1
        assert relay_bound(p) >= s


class TestOptimalSegments:
    def test_small_known_case(self):
        plan = optimal_segments(num_uavs=5, s=2)
        assert plan.lmax == 4
        assert plan.relay_bound <= 5

    def test_k20_s3_paper_setting(self):
        plan = optimal_segments(20, 3)
        assert plan.relay_bound <= 20
        assert plan.lmax >= 10  # sanity: a decent chunk of the 20 UAVs
        assert sum(plan.p) == plan.lmax - 3

    def test_l_equals_k_found_when_feasible(self):
        # K = s + 1 with one interior node: g = s + 1 <= K, so Lmax = K.
        for s in (1, 2, 3):
            plan = optimal_segments(s + 1, s)
            assert plan.lmax == s + 1

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            optimal_segments(3, 0)
        with pytest.raises(ValueError):
            optimal_segments(2, 3)

    @given(st.integers(1, 5), st.integers(1, 24))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, s, extra):
        num_uavs = s + extra
        fast = optimal_segments(num_uavs, s)
        slow = brute_force_segments(num_uavs, s)
        assert fast.lmax == slow.lmax, (
            f"L_max mismatch for K={num_uavs}, s={s}: "
            f"{fast.lmax} vs brute {slow.lmax}"
        )
        assert fast.relay_bound <= num_uavs
        assert fast.relay_bound == slow.relay_bound

    @given(st.integers(1, 4), st.integers(2, 30))
    @settings(max_examples=40, deadline=None)
    def test_plan_consistency(self, s, extra):
        plan = optimal_segments(s + extra, s)
        assert len(plan.p) == s + 1
        assert sum(plan.p) == plan.lmax - s
        assert relay_bound(list(plan.p)) == plan.relay_bound
        q = plan.q_bounds()
        assert q[0] == plan.lmax
        assert len(q) == plan.hmax + 1

    def test_lmax_monotone_in_k(self):
        values = [optimal_segments(k, 3).lmax for k in range(3, 40)]
        assert values == sorted(values)

    def test_lmax_grows_like_sqrt_sk(self):
        """Theorem 1: L_1 ~ sqrt(4 s K); Algorithm 1's Lmax should track
        that within a constant factor."""
        for s in (1, 2, 3):
            for k in (20, 50, 100):
                plan = optimal_segments(k, s)
                assert plan.lmax >= 0.8 * math.sqrt(4 * s * k) - 2 * s - 2
