"""Breadth-first search utilities: hop distances, shortest hop paths,
connectivity.

Hop distances drive both matroid ``M2`` (how far a node is from the anchor
set, Section III-C) and the edge weights of the connection graph ``G'_j``
(Section III-E).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from itertools import chain

import numpy as np

from repro.graphs.adjacency import Graph

UNREACHABLE = -1
"""Marker for nodes with no path from the source set."""

# Byte budget of one block of gathered neighbour frontiers in
# :func:`all_pairs_hops`; bounds its temporaries on dense graphs.
_GATHER_BYTES = 1 << 24


def bfs_hops(graph: Graph, source: int) -> list:
    """Hop distance from ``source`` to every node (-1 if unreachable)."""
    return multi_source_hops(graph, [source])


def multi_source_hops(graph: Graph, sources: Iterable) -> list:
    """Hop distance from the nearest of ``sources`` to every node.

    This is exactly the ``d_l`` of Section III-C when ``sources`` is the
    anchor set {v*_1..v*_s}.
    """
    dist = [UNREACHABLE] * graph.num_nodes
    queue: deque = deque()
    for s in sources:
        if not (0 <= s < graph.num_nodes):
            raise IndexError(f"source {s} outside graph")
        if dist[s] == UNREACHABLE:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbours(u):
            if dist[v] == UNREACHABLE:
                dist[v] = du + 1
                queue.append(v)
    return dist


def all_pairs_hops(graph: Graph) -> np.ndarray:
    """Hop distances between all node pairs as an ``(n, n)`` int16 array
    (``UNREACHABLE`` = -1); row ``s`` equals ``bfs_hops(graph, s)``.

    One level-synchronous BFS from every source at once.  Each node
    carries a packed bitset over the sources; its frontier bits are the
    sources exactly ``level`` hops away.  A level ORs every node's
    neighbour frontiers (``np.bitwise_or.reduceat`` over CSR neighbour
    rows, gathered in bounded blocks) and keeps the bits not yet visited.
    Cost is O(diameter * edges * n/8) bytes.  BFS distances are unique,
    so the matrix is exactly the stacked per-source rows.
    """
    n = graph.num_nodes
    hops = np.full((n, n), UNREACHABLE, dtype=np.int16)
    np.fill_diagonal(hops, 0)
    degree = np.array([graph.degree(v) for v in range(n)], dtype=np.int64)
    if not degree.any():
        return hops
    neighbours = np.fromiter(
        chain.from_iterable(graph.neighbours(v) for v in range(n)),
        dtype=np.int64, count=int(degree.sum()),
    )
    starts = np.cumsum(degree) - degree
    # Frontier rows are packbits-layout source bitsets padded to whole
    # uint64 words, which the OR-reduce walks 8x faster than bytes.
    source = np.arange(n)
    ident = np.zeros((n, -(-n // 64) * 8), dtype=np.uint8)
    ident[source, source >> 3] = 0x80 >> (source & 7)
    frontier = ident.view(np.uint64)
    visited = frontier.copy()
    # Isolated nodes have no CSR row (reduceat cannot express an empty
    # one), so blocks hold only nodes with neighbours.
    active = np.flatnonzero(degree)
    per_block = max(1, _GATHER_BYTES // ident.shape[1])
    blocks = []
    for nodes in np.split(
        active, np.flatnonzero(np.diff(starts[active] // per_block)) + 1
    ):
        lo = starts[nodes[0]]
        hi = starts[nodes[-1]] + degree[nodes[-1]]
        blocks.append((nodes, neighbours[lo:hi], starts[nodes] - lo))
    level = 0
    while True:
        level += 1
        reached = np.zeros_like(frontier)
        for nodes, rows, offsets in blocks:
            reached[nodes] = np.bitwise_or.reduceat(
                frontier[rows], offsets, axis=0
            )
        reached &= ~visited
        if not reached.any():
            return hops
        visited |= reached
        # reached[v] holds the sources s with hop(s, v) == level; hop
        # distances in an undirected graph are symmetric, so it indexes
        # row v directly.
        new = np.unpackbits(reached.view(np.uint8), axis=1, count=n)
        hops[new.view(bool)] = level
        frontier = reached


def shortest_hop_path(graph: Graph, source: int, target: int) -> "list | None":
    """One shortest path (list of nodes, inclusive) or None if disconnected."""
    if source == target:
        return [source]
    parent = [UNREACHABLE] * graph.num_nodes
    dist = [UNREACHABLE] * graph.num_nodes
    dist[source] = 0
    queue: deque = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbours(u):
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                parent[v] = u
                if v == target:
                    path = [v]
                    while path[-1] != source:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                queue.append(v)
    return None


def connected_components(graph: Graph) -> list:
    """All connected components as lists of nodes (each sorted)."""
    seen = [False] * graph.num_nodes
    components = []
    for start in range(graph.num_nodes):
        if seen[start]:
            continue
        comp = []
        queue: deque = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.neighbours(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
        components.append(sorted(comp))
    return components


def is_connected(graph: Graph, nodes: "Iterable | None" = None) -> bool:
    """Whether the graph (or the induced subgraph on ``nodes``) is connected.

    An empty node set and a single node both count as connected.
    """
    if nodes is None:
        if graph.num_nodes <= 1:
            return True
        return len(connected_components(graph)) == 1
    node_set = set(nodes)
    if len(node_set) <= 1:
        return True
    start = next(iter(node_set))
    seen = {start}
    queue: deque = deque([start])
    while queue:
        u = queue.popleft()
        for v in graph.neighbours(u):
            if v in node_set and v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(node_set)
