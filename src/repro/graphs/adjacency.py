"""A minimal undirected graph over integer node ids ``0..n-1``.

Nodes are dense integers because every consumer in this library indexes
candidate hovering locations by position; adjacency is a list of lists,
which keeps BFS allocation-free and fast in pure Python.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import chain, compress

import numpy as np


class Graph:
    """Undirected simple graph with optional edge weights."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
        self._adj: list = [[] for _ in range(num_nodes)]
        self._weights: dict = {}
        self._num_edges = 0
        #: Shortest hop paths keyed ``(source, target)``, filled by
        #: :func:`repro.graphs.steiner.steiner_connect`; an edge insert
        #: clears it.
        self.path_memo: dict = {}

    @classmethod
    def from_edges(
        cls, num_nodes: int, edges: Iterable, weighted: bool = False
    ) -> "Graph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        g = cls(num_nodes)
        for edge in edges:
            if weighted:
                u, v, w = edge
                g.add_edge(u, v, w)
            else:
                u, v = edge[0], edge[1]
                g.add_edge(u, v)
        return g

    @classmethod
    def from_arrays(cls, num_nodes: int, us, vs,
                    weights: "float | Iterable" = 1.0) -> "Graph":
        """The graph repeated :meth:`add_edge` calls over the edges
        ``(us[i], vs[i])`` in order would build: each node lists its
        neighbours in edge order, and the weights (a scalar for every
        edge, or one per edge) keep that insertion order.  Node ranges
        and self-loops are checked over the whole arrays, a repeated edge
        by the weight table's size, not edge by edge."""
        g = cls(num_nodes)
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        if us.size != vs.size:
            raise ValueError("us and vs differ in length")
        if not us.size:
            return g
        lo, hi = min(us.min(), vs.min()), max(us.max(), vs.max())
        if lo < 0 or hi >= num_nodes:
            raise IndexError(
                f"node {lo if lo < 0 else hi} outside [0, {num_nodes})"
            )
        if (us == vs).any():
            raise ValueError(
                f"self-loop on node {us[np.argmax(us == vs)]} not allowed"
            )
        # Edge i adds arc us[i] -> vs[i] and then vs[i] -> us[i]; a
        # stable sort by tail leaves each node's arcs in edge order.
        tails = np.column_stack((us, vs)).ravel()
        heads = np.column_stack((vs, us)).ravel()
        heads = heads[np.argsort(tails, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(tails, minlength=num_nodes)).tolist()
        g._adj = [heads[a:b] for a, b in zip([0] + ends[:-1], ends)]
        keys = zip(np.minimum(us, vs).tolist(), np.maximum(us, vs).tolist())
        if isinstance(weights, (int, float)):
            g._weights = dict.fromkeys(keys, weights)
        else:
            weights = (weights.tolist() if isinstance(weights, np.ndarray)
                       else list(weights))
            if len(weights) != us.size:
                raise ValueError("weights and edges differ in length")
            g._weights = dict(zip(keys, weights))
        if len(g._weights) != us.size:
            raise ValueError("an edge is present more than once")
        g._num_edges = int(us.size)
        return g

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _check_node(self, u: int) -> None:
        if not (0 <= u < len(self._adj)):
            raise IndexError(f"node {u} outside [0, {len(self._adj)})")

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add undirected edge (u, v).  Parallel edges and self-loops are
        rejected — neither occurs in the coverage graph."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise ValueError(f"self-loop on node {u} not allowed")
        if self.has_edge(u, v):
            raise ValueError(f"edge ({u}, {v}) already present")
        self._adj[u].append(v)
        self._adj[v].append(u)
        self._weights[(min(u, v), max(u, v))] = weight
        self._num_edges += 1
        self.path_memo.clear()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return (min(u, v), max(u, v)) in self._weights

    def weight(self, u: int, v: int) -> float:
        try:
            return self._weights[(min(u, v), max(u, v))]
        except KeyError:
            raise KeyError(f"no edge ({u}, {v})") from None

    def neighbours(self, u: int) -> list:
        self._check_node(u)
        return self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def edges(self) -> list:
        """All edges as (u, v, weight) with u < v."""
        return [(u, v, w) for (u, v), w in self._weights.items()]

    def subgraph(self, nodes: Iterable) -> "tuple[Graph, dict]":
        """Induced subgraph on ``nodes``.

        Returns ``(graph, mapping)`` where ``mapping[original] = new`` and
        the new graph is indexed densely ``0..len(nodes)-1``.
        """
        node_list = sorted(set(nodes))
        mapping = {orig: new for new, orig in enumerate(node_list)}
        return self.induced(node_list), mapping

    def induced(self, nodes) -> "Graph":
        """The induced subgraph on the ascending, distinct node ids
        ``nodes``, node ``nodes[i]`` relabelled ``i``.

        The relabel is monotone, so the graph equals repeated
        :meth:`add_edge` calls over this graph's kept edges in their
        order: each neighbour list is this graph's, filtered, and the
        weights keep their order.  One array pass over the edge list."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and ((nodes[1:] <= nodes[:-1]).any() or nodes[0] < 0
                           or nodes[-1] >= self.num_nodes):
            raise ValueError(
                f"induced wants ascending distinct nodes in [0, "
                f"{self.num_nodes})"
            )
        relabel = np.full(self.num_nodes, -1, dtype=np.int64)
        relabel[nodes] = np.arange(nodes.size)
        ends = relabel[np.fromiter(
            chain.from_iterable(self._weights), dtype=np.int64,
            count=2 * self._num_edges,
        )].reshape(-1, 2)
        kept = (ends >= 0).all(axis=1)
        return Graph.from_arrays(
            int(nodes.size), ends[kept, 0], ends[kept, 1],
            list(compress(self._weights.values(), kept.tolist())),
        )
