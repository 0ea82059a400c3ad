"""The paper's literal definitions, kept as test references.

Nothing under ``src`` imports these.  ``fnw`` holds the matroids, the
coverage function ``f(A)`` and the generic FNW greedy that the solver's
greedies are pinned to; ``euler`` holds Section III-A's Eulerian split,
the construct Lemma 2's proof uses.
"""
