"""The lazy-heap Prim over a weighted :class:`~repro.graphs.adjacency.Graph`,
kept as a test oracle.

:func:`repro.graphs.mst.minimum_spanning_tree` is a dense Prim over a
weight matrix; tests pin its edges, in order, to this heap Prim on the
complete graph with the same weights.
"""

from __future__ import annotations

import heapq

from repro.graphs.adjacency import Graph


def minimum_spanning_tree(graph: Graph) -> list:
    """Return MST edges as ``(u, v, weight)`` tuples (u < v).

    Uses Prim's algorithm with a lazy heap.  Raises ``ValueError`` if the
    graph is disconnected (an MST does not exist) — callers always build the
    complete hop-distance graph, so disconnection indicates a bug upstream.
    """
    n = graph.num_nodes
    if n == 0:
        return []
    in_tree = [False] * n
    edges: list = []
    heap: list = []
    in_tree[0] = True
    for v in graph.neighbours(0):
        heapq.heappush(heap, (graph.weight(0, v), 0, v))
    added = 1
    while heap and added < n:
        w, u, v = heapq.heappop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = True
        added += 1
        edges.append((min(u, v), max(u, v), w))
        for nxt in graph.neighbours(v):
            if not in_tree[nxt]:
                heapq.heappush(heap, (graph.weight(v, nxt), v, nxt))
    if added != n:
        raise ValueError(
            f"graph is disconnected ({added} of {n} nodes reachable); "
            "no spanning tree exists"
        )
    return edges


def tree_weight(edges: list) -> float:
    """Total weight of a list of (u, v, w) edges."""
    return sum(w for _, _, w in edges)
