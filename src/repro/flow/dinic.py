"""Dinic's maximum-flow algorithm (integral capacities).

This is the "algorithm in [1]" the paper invokes for the maximum assignment
problem of Section II-D: build the flow network s -> users -> locations -> t
and find an integral max flow.  Dinic runs in O(V^2 E) generally and
O(E sqrt(V)) on unit-capacity bipartite networks, which is the regime here.

Each phase finds the BFS levels with a numpy frontier sweep over the
residual arcs, keeps the level-graph arcs that lie on some source-sink
path, and pushes a blocking flow by DFS over those arcs alone.  The DFS
keeps its path on an explicit stack, so an augmenting path may be longer
than the interpreter's recursion limit.  It scans a node's arcs in
arc-id order with one resume pointer per node, so the flow it leaves is
the flow of the textbook loop that scans every arc and walks into dead
ends: an arc into a dead end, or not in the level graph, would push
nothing there.
"""

from __future__ import annotations

import numpy as np


class Dinic:
    """Max-flow solver over an explicit arc list with residual capacities.

    Arcs are stored as parallel lists; arc ``i`` and its residual twin
    ``i ^ 1`` are adjacent, the usual trick for O(1) residual updates.
    A node's arcs, forward and twin, are its arc ids in ascending order.
    """

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes, got {num_nodes}")
        self.num_nodes = num_nodes
        self._head: list = []   # arc target (arc i's source: head[i ^ 1])
        self._cap: list = []    # residual capacity
        # int64 array copies of (tail, head) and of the residual
        # capacities for the numpy passes; None until first needed.
        self._ends: "tuple | None" = None
        self._residual: "np.ndarray | None" = None

    def add_edge(self, u: int, v: int, capacity: int) -> int:
        """Add directed arc u -> v; returns the arc id (for flow queries)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise IndexError(f"arc ({u}, {v}) outside node range")
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        arc_id = len(self._head)
        self._head += (v, u)
        self._cap += (capacity, 0)
        self._ends = self._residual = None
        return arc_id

    def add_edges(self, tails, heads, capacities, flows=None) -> np.ndarray:
        """Add arcs ``tails[i] -> heads[i]`` in order, as repeated
        :meth:`add_edge` calls would (same arc ids and twins), each
        carrying ``flows[i]`` units already (default none; the caller
        keeps conservation, as with :meth:`add_flow`).  Returns the arc
        ids as an int64 array."""
        tails = np.asarray(tails, dtype=np.int64).ravel()
        heads = np.asarray(heads, dtype=np.int64).ravel()
        caps = np.asarray(capacities, dtype=np.int64).ravel()
        flow = (np.zeros_like(caps) if flows is None
                else np.asarray(flows, dtype=np.int64).ravel())
        if not tails.size == heads.size == caps.size == flow.size:
            raise ValueError("tails, heads, capacities and flows differ "
                             "in length")
        outside = (tails < 0) | (tails >= self.num_nodes) \
            | (heads < 0) | (heads >= self.num_nodes)
        if outside.any():
            i = int(np.argmax(outside))
            raise IndexError(
                f"arc ({tails[i]}, {heads[i]}) outside node range"
            )
        if (caps < 0).any():
            raise ValueError(
                f"capacity must be non-negative, got {caps.min()}"
            )
        if ((flow < 0) | (flow > caps)).any():
            raise ValueError("seeded flow outside [0, capacity] on some arc")
        base = len(self._head)
        ends = np.empty((tails.size, 2), dtype=np.int64)
        ends[:, 0], ends[:, 1] = tails, heads
        tail, head = ends.ravel(), ends[:, ::-1].ravel()
        residual = np.empty((caps.size, 2), dtype=np.int64)
        residual[:, 0], residual[:, 1] = caps - flow, flow
        residual = residual.ravel()
        self._head += head.tolist()
        self._cap += residual.tolist()
        if base == 0:
            self._ends, self._residual = (tail, head), residual
        else:
            self._ends = self._residual = None
        return base + 2 * np.arange(tails.size, dtype=np.int64)

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
        if self._residual is not None:
            self._residual[arc_id] -= amount
            self._residual[arc_id ^ 1] += amount

    def flow_on(self, arc_id: int) -> int:
        """Flow currently pushed through arc ``arc_id`` (its twin's residual)."""
        return self._cap[arc_id ^ 1]

    def flows_on(self, arc_ids) -> np.ndarray:
        """:meth:`flow_on` of every arc in ``arc_ids``, as an int64 array."""
        return self._residual_array()[np.asarray(arc_ids, dtype=np.int64) ^ 1]

    def _arrays(self) -> tuple:
        if self._ends is None:
            head = np.array(self._head, dtype=np.int64)
            self._ends = (head.reshape(-1, 2)[:, ::-1].ravel(), head)
        return self._ends

    def _residual_array(self) -> np.ndarray:
        if self._residual is None:
            self._residual = np.array(self._cap, dtype=np.int64)
        return self._residual

    def _live(self) -> tuple:
        """``(arc ids, tails, heads)`` of the arcs with residual capacity,
        in arc-id order."""
        tail, head = self._arrays()
        live = np.flatnonzero(self._residual_array() > 0)
        return live, tail[live], head[live]

    def _levels(self, source: int, sink: "int | None", tail: np.ndarray,
                head: np.ndarray) -> np.ndarray:
        """BFS hop levels over the arcs ``tail -> head`` (``-1`` when
        unreached), one numpy pass per level; stops once ``sink`` has a
        level, since no phase uses a node beyond it."""
        level = np.full(self.num_nodes, -1, dtype=np.int64)
        level[source] = 0
        depth = 0
        while True:
            reached = head[level[tail] == depth]
            reached = reached[level[reached] < 0]
            if reached.size == 0:
                return level
            depth += 1
            level[reached] = depth
            if sink is not None and level[sink] >= 0:
                return level

    def _level_arcs(self, level: np.ndarray, sink: int, live: np.ndarray,
                    tail: np.ndarray, head: np.ndarray) -> tuple:
        """The level-graph arcs on some source-sink path, grouped by tail
        in arc-id order: ``(arcs, start, end)`` with node ``u``'s arcs at
        ``arcs[start[u]:end[u]]``.  ``live``, ``tail`` and ``head`` are
        :meth:`_live`'s arcs, the ones :meth:`_levels` swept."""
        top = level[sink]
        lt = level[tail]
        step = np.flatnonzero((lt >= 0) & (level[head] == lt + 1) & (lt < top))
        on_path = np.zeros(self.num_nodes, dtype=bool)
        on_path[sink] = True
        keep = []
        for d in range(top - 1, -1, -1):
            at = step[lt[step] == d]
            at = at[on_path[head[at]]]
            on_path[tail[at]] = True
            keep.append(at)
        at = np.sort(np.concatenate(keep))
        at = at[np.argsort(tail[at], kind="stable")]
        counts = np.bincount(tail[at], minlength=self.num_nodes)
        end = np.cumsum(counts)
        return live[at].tolist(), (end - counts).tolist(), end.tolist()

    def _push(self, source: int, sink: int, limit: int, arcs: list,
              it: list, end: list, moved: list) -> int:
        """One blocking-flow push from ``source``: the units a recursive
        ``push(u, limit)`` would move, walked on an explicit stack so the
        depth of an augmenting path is not bounded by the interpreter's
        recursion limit.

        ``push(u, limit)`` scans ``u``'s level arcs from its resume
        pointer ``it[u]``; an arc with room pushes
        ``min(limit - pushed, room)`` into its head (the sink takes all
        of it), updates the residuals and records the arc in ``moved``.
        ``u`` returns once it has pushed ``limit`` (resuming at the same
        arc next time) or has run out of arcs."""
        cap, head = self._cap, self._head
        # The frames below the current node ``u``: (node, arc index,
        # limit, units pushed so far).
        path: list = []
        enter, leave = path.append, path.pop
        u, i, total = source, it[source], 0
        while True:
            stop = end[u]
            while i < stop and cap[arcs[i]] <= 0:
                i += 1
            if i < stop:
                arc = arcs[i]
                want = limit - total
                if cap[arc] < want:
                    want = cap[arc]
                v = head[arc]
                if v != sink:
                    enter((u, i, limit, total))
                    u, i, limit, total = v, it[v], want, 0
                    continue
                back = want
            else:
                it[u] = i
                if not path:
                    return total
                back = total
                u, i, limit, total = leave()
            # ``back`` units went through ``u``'s arc ``arcs[i]``.
            while back > 0:
                arc = arcs[i]
                cap[arc] -= back
                cap[arc ^ 1] += back
                moved.append(arc)
                total += back
                if total < limit:
                    break
                it[u] = i
                if not path:
                    return total
                back = total
                u, i, limit, total = leave()
            i += 1

    def max_flow(self, source: int, sink: int) -> int:
        """Compute the max flow value from ``source`` to ``sink``."""
        if source == sink:
            raise ValueError("source and sink must differ")
        total = 0
        inf = 1 << 60
        cap = self._cap
        cap_now = self._residual_array()
        while True:
            live, tail, head_now = self._live()
            level = self._levels(source, sink, tail, head_now)
            if level[sink] < 0:
                return total
            arcs, it, end = self._level_arcs(level, sink, live, tail,
                                             head_now)
            moved: list = []
            while True:
                pushed = self._push(source, sink, inf, arcs, it, end, moved)
                if pushed == 0:
                    break
                total += pushed
            # Bring the array copy of the residuals up to date.
            touched = np.array(moved, dtype=np.int64)
            touched = np.concatenate((touched, touched ^ 1))
            cap_now[touched] = [cap[a] for a in touched.tolist()]

    def min_cut_reachable(self, source: int) -> set:
        """Nodes reachable from ``source`` in the residual graph.

        Call after :meth:`max_flow`; the arcs from this set to its complement
        form a minimum cut (used by property tests to check optimality).
        """
        _, tail, head = self._live()
        level = self._levels(source, None, tail, head)
        return set(np.flatnonzero(level >= 0).tolist())
