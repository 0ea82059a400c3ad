"""The hop-counting matroid ``M2`` (Section III-C).

The proposed algorithm maximises a monotone submodular coverage function
subject to the intersection of two matroids: the partition matroid ``M1``
(each UAV deployed at most once) and the hop-counting matroid ``M2`` (node
counts per hop distance from the anchor set bounded by ``Q_h``, Eq. 1).
The solver's greedies (:mod:`repro.core.greedy`) enforce ``M1`` by
construction and ``M2`` through :class:`IncrementalHopFilter`; the
generic FNW greedy they specialise lives in ``tests/reference/fnw.py``.
"""

from repro.matroid.hop import HopCountingMatroid, IncrementalHopFilter

__all__ = [
    "HopCountingMatroid",
    "IncrementalHopFilter",
]
