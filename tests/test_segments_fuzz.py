"""Fuzz pass over Algorithm 1 (:mod:`repro.core.segments`).

Random ``(s, K)`` pairs assert the binary-searched plan is exactly what
the paper claims:

* feasibility — the returned split satisfies Eq. 2, ``g(L, p) <= K``,
  with ``len(p) == s + 1`` and ``sum(p) == L_max - s``;
* maximality — ``L_max + 1`` is infeasible: *every* composition of
  ``L_max + 1 - s`` interior nodes into ``s + 1`` segments violates the
  relay bound (the exhaustive scan, not just the balanced splits
  Algorithm 1 considers);
* optimality of the balanced split — on small inputs the plan matches
  the full brute-force reference (:func:`brute_force_segments`) in both
  ``L_max`` and the minimum relay bound, confirming the structural lemma
  that balanced splits suffice;
* Eq. 1 sanity — ``Q_0 == L_max``, the ``Q_h`` sequence is
  non-increasing, and it has exactly ``h_max + 1`` entries.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segments import (
    hmax_of,
    optimal_segments,
    q_bounds,
    relay_bound,
)
from tests.reference.segments import brute_force_segments


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


_sk = st.integers(min_value=1, max_value=5).flatmap(
    lambda s: st.tuples(
        st.just(s), st.integers(min_value=s, max_value=60)
    )
)

_sk_small = st.integers(min_value=1, max_value=4).flatmap(
    lambda s: st.tuples(
        st.just(s), st.integers(min_value=s, max_value=18)
    )
)


@given(sk=_sk)
@settings(max_examples=120, deadline=None)
def test_plan_feasible_and_lmax_plus_one_infeasible(sk):
    s, k = sk
    plan = optimal_segments(k, s)

    # Shape and Eq. 2 feasibility of the returned split.
    assert len(plan.p) == s + 1
    assert all(pi >= 0 for pi in plan.p)
    assert sum(plan.p) == plan.lmax - s
    assert s <= plan.lmax <= k
    assert plan.relay_bound == relay_bound(list(plan.p))
    assert plan.relay_bound <= k, (
        f"g(L, p) = {plan.relay_bound} > K = {k} for s={s}"
    )

    # Maximality: no composition whatsoever makes L_max + 1 fit.
    interior = plan.lmax + 1 - s
    assert all(
        relay_bound(list(p)) > k
        for p in _compositions(interior, s + 1)
    ), f"L_max + 1 = {plan.lmax + 1} admits a feasible split (s={s}, K={k})"


@given(sk=_sk_small)
@settings(max_examples=60, deadline=None)
def test_plan_matches_brute_force_reference(sk):
    s, k = sk
    plan = optimal_segments(k, s)
    brute = brute_force_segments(k, s)
    assert plan.lmax == brute.lmax, (
        f"binary search found L_max = {plan.lmax}, brute force "
        f"{brute.lmax} (s={s}, K={k})"
    )
    # Ties in p are fine; the minimised relay bound must agree.
    assert plan.relay_bound == brute.relay_bound


@given(sk=_sk)
@settings(max_examples=120, deadline=None)
def test_q_bounds_sane(sk):
    s, k = sk
    plan = optimal_segments(k, s)
    q = plan.q_bounds()
    assert q == q_bounds(plan.lmax, list(plan.p))
    assert q[0] == plan.lmax
    assert len(q) == hmax_of(list(plan.p)) + 1
    assert all(a >= b for a, b in zip(q, q[1:])), (
        f"Q_h must be non-increasing, got {q}"
    )
    assert all(v >= 0 for v in q)
    # At the largest hop distance somebody is still that far out (unless
    # there are no interior nodes at all and the list is just [L]).
    if len(q) > 1:
        assert q[-1] >= 1
