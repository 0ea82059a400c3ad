"""Dinic's maximum-flow algorithm (integral capacities).

This is the "algorithm in [1]" the paper invokes for the maximum assignment
problem of Section II-D: build the flow network s -> users -> locations -> t
and find an integral max flow.  Dinic runs in O(V^2 E) generally and
O(E sqrt(V)) on unit-capacity bipartite networks, which is the regime here.
"""

from __future__ import annotations

from collections import deque


class Dinic:
    """Max-flow solver over an explicit arc list with residual capacities.

    Arcs are stored as parallel arrays; arc ``i`` and its residual twin
    ``i ^ 1`` are adjacent, the usual trick for O(1) residual updates.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self._head: list = []   # arc target
        self._cap: list = []    # residual capacity
        self._out: list = [[] for _ in range(num_nodes)]  # arc ids per node

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add directed arc u -> v; returns the arc id (for flow queries)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise IndexError(f"arc ({u}, {v}) outside node range")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        arc_id = len(self._head)
        self._head.append(v)
        self._cap.append(capacity)
        self._out[u].append(arc_id)
        self._head.append(u)
        self._cap.append(0)
        self._out[v].append(arc_id + 1)
        return arc_id

    def add_flow(self, arc_id: int, amount: int) -> None:
        """Push ``amount`` units along arc ``arc_id`` — for seeding a flow
        the caller already knows is feasible (conservation at the arc's
        ends is the caller's to keep).  ``ValueError`` when ``amount`` is
        negative or above the arc's residual capacity."""
        if not 0 <= amount <= self._cap[arc_id]:
            raise ValueError(
                f"cannot push {amount} units on arc {arc_id} with residual "
                f"capacity {self._cap[arc_id]}"
            )
        self._cap[arc_id] -= amount
        self._cap[arc_id ^ 1] += amount

    def flow_on(self, arc_id: int) -> int:
        """Flow currently pushed through arc ``arc_id`` (its twin's residual)."""
        return self._cap[arc_id ^ 1]

    def _bfs_levels(self, source: int, sink: int) -> "list | None":
        level = [-1] * self.num_nodes
        level[source] = 0
        queue: deque = deque([source])
        while queue:
            u = queue.popleft()
            for arc in self._out[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level if level[sink] >= 0 else None

    def _dfs_push(self, u: int, sink: int, limit: int,
                  level: list, it: list) -> int:
        if u == sink:
            return limit
        pushed_total = 0
        while it[u] < len(self._out[u]):
            arc = self._out[u][it[u]]
            v = self._head[arc]
            if self._cap[arc] > 0 and level[v] == level[u] + 1:
                pushed = self._dfs_push(
                    v, sink, min(limit - pushed_total, self._cap[arc]), level, it
                )
                if pushed > 0:
                    self._cap[arc] -= pushed
                    self._cap[arc ^ 1] += pushed
                    pushed_total += pushed
                    if pushed_total == limit:
                        return pushed_total
            it[u] += 1
        return pushed_total

    def max_flow(self, source: int, sink: int) -> int:
        """Compute the max flow value from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0
        inf = 1 << 60
        while True:
            level = self._bfs_levels(source, sink)
            if level is None:
                return total
            it = [0] * self.num_nodes
            while True:
                pushed = self._dfs_push(source, sink, inf, level, it)
                if pushed == 0:
                    break
                total += pushed

    def min_cut_reachable(self, source: int) -> set:
        """Nodes reachable from ``source`` in the residual graph.

        Call after :meth:`max_flow`; the arcs from this set to its complement
        form a minimum cut (used by property tests to check optimality).
        """
        seen = {source}
        queue: deque = deque([source])
        while queue:
            u = queue.popleft()
            for arc in self._out[u]:
                v = self._head[arc]
                if self._cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen
