"""The paper's literal definitions, kept as test references.

Nothing under ``src`` imports these.  ``fnw`` holds the matroids, the
coverage function ``f(A)`` and the generic FNW greedy that the solver's
greedies are pinned to; ``euler`` holds Section III-A's Eulerian split,
the construct Lemma 2's proof uses; ``spatial_hash`` holds the bucketed
range query the coverage and location-graph kernels are checked against;
``sweeps`` holds the hand-rolled figure-sweep and paired-comparison loops
the spec-row experiment grid is pinned to; ``subsets`` holds the scalar
greedy, connect and prune loops the batched subset evaluation is pinned
to.
"""
