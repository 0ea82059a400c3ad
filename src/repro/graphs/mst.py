"""Minimum spanning tree (Prim) for the connection graph ``G'_j``.

Section III-E builds a complete graph over the greedily chosen locations
with hop-distance weights and takes an MST; the MST edges are then expanded
into shortest paths in ``G`` (see :mod:`repro.graphs.steiner`).
"""

from __future__ import annotations

from collections.abc import Sequence


def minimum_spanning_tree(weights: Sequence) -> list:
    """MST edges of the complete graph on nodes ``0..n-1`` whose edge
    ``u``–``v`` weighs ``weights[u][v]`` (a symmetric ``n x n`` matrix:
    a list of rows or an array; the diagonal is never read).  Returns
    ``(u, v, weight)`` tuples (``u < v``).

    A dense Prim from node 0.  Each node outside the tree keeps its
    lightest edge from the tree as ``(weight, tree node, node)``, the
    lowest tree node among equal weights, and each step adds the least
    such triple: edges come out in the order a lazy-heap Prim over
    ``(weight, tree node, node)`` entries pops them, ties included.
    O(n^2) comparisons, no heap and no graph object — the connection
    step's terminal sets are small and complete."""
    n = len(weights)
    if n == 0:
        return []
    row = weights[0]
    pending = [(row[x], 0, x) for x in range(1, n)]
    edges: list = []
    while pending:
        best = min(pending)
        w, u, v = best
        edges.append((min(u, v), max(u, v), w))
        row = weights[v]
        pending = [
            (row[x], v, x) if (row[x], v) < (bw, bu) else (bw, bu, x)
            for bw, bu, x in pending if x != v
        ]
    return edges
