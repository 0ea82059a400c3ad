"""The paper's literal definitions, kept as test references.

Nothing under ``src`` imports these.  ``fnw`` holds the matroids, the
coverage function ``f(A)`` and the generic FNW greedy that the solver's
greedies are pinned to; ``euler`` holds Section III-A's Eulerian split,
the construct Lemma 2's proof uses; ``spatial_hash`` holds the bucketed
range query the coverage and location-graph kernels are checked against;
``sweeps`` holds the hand-rolled figure-sweep and paired-comparison loops
the spec-row experiment grid is pinned to; ``subsets`` holds the scalar
greedy, connect and prune loops the batched subset evaluation is pinned
to; ``kuhn`` holds the scalar Kuhn-DFS user engine the bitset flow
engine's gains and served counts are pinned to, and the copy-and-open
``reference_gain`` both engines' count-only probes are pinned to;
``segments`` holds the exhaustive segment scan Algorithm 1's balanced
splits are checked against.
"""
