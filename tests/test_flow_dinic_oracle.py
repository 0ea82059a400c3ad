"""The bulk-built Dinic against the scalar one it replaced.

:class:`repro.flow.dinic.Dinic` adds arcs in bulk (:meth:`add_edges`,
optionally carrying a seeded flow), finds each phase's levels with a
numpy frontier sweep, and runs its DFS over the level-graph arcs that lie
on a source-sink path.  ``ReferenceDinic`` below is the previous class,
copied verbatim: per-arc ``add_edge``, a deque BFS and a DFS over every
arc of a node.  On random networks (arcs added one by one and in bulk,
with and without a seeded flow) and on the final-assignment networks of
seeded paper scenarios, both must reach the same flow value and leave
identical residual capacities, arc by arc: the assignment read off the
flow depends on which arcs carry it, not just on how much.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.core.context import SolverContext
from repro.flow.dinic import Dinic
from repro.workload.scenarios import paper_scenario


class ReferenceDinic:
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


def random_arcs(seed: int, n: int, m: int, max_cap: int) -> tuple:
    """``m`` random arcs over ``n`` nodes (self-loops and parallel arcs
    included), capacities in ``[0, max_cap]``."""
    rng = np.random.default_rng(seed)
    tails = rng.integers(0, n, m)
    heads = rng.integers(0, n, m)
    caps = rng.integers(0, max_cap + 1, m)
    return tails, heads, caps


def assert_same_residuals(ours: Dinic, reference: ReferenceDinic) -> None:
    assert ours._cap == reference._cap
    assert ours._head == reference._head


def reference_network(n: int, tails, heads, caps) -> ReferenceDinic:
    reference = ReferenceDinic(n)
    for u, v, c in zip(tails.tolist(), heads.tolist(), caps.tolist()):
        reference.add_edge(u, v, c)
    return reference


@pytest.mark.parametrize("seed", range(40))
def test_random_networks_match(seed):
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(2, 40))
    m = int(rng.integers(0, 6 * n))
    max_cap = int(rng.choice([1, 3, 20]))
    tails, heads, caps = random_arcs(seed, n, m, max_cap)
    source, sink = 0, n - 1
    reference = reference_network(n, tails, heads, caps)
    one_by_one = Dinic(n)
    for u, v, c in zip(tails.tolist(), heads.tolist(), caps.tolist()):
        one_by_one.add_edge(u, v, c)
    bulk = Dinic(n)
    ids = bulk.add_edges(tails, heads, caps)
    assert ids.tolist() == list(range(0, 2 * m, 2))
    assert_same_residuals(bulk, reference)
    want = reference.max_flow(source, sink)
    for ours in (one_by_one, bulk):
        assert ours.max_flow(source, sink) == want
        assert_same_residuals(ours, reference)
        assert ours.min_cut_reachable(source) \
            == reference.min_cut_reachable(source)
        np.testing.assert_array_equal(
            ours.flows_on(ids), [reference.flow_on(a) for a in ids.tolist()]
        )


@pytest.mark.parametrize("seed", range(20))
def test_seeded_flows_match(seed):
    """A feasible flow seeded arc by arc (``add_flow``) or with the arcs
    (``add_edges(..., flows)``): a random path flow from the source."""
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(4, 30))
    tails, heads, caps = random_arcs(seed, n, 5 * n, 4)
    flows = np.zeros_like(caps)
    # Push one unit along a few random walks from the source that end at
    # the sink, using only arcs with spare capacity.
    out: dict = {}
    for i, u in enumerate(tails.tolist()):
        out.setdefault(u, []).append(i)
    for _ in range(n):
        node, path, seen = 0, [], {0}
        while node != n - 1:
            spare = [i for i in out.get(node, [])
                     if flows[i] < caps[i] and heads[i] not in seen]
            if not spare:
                path = None
                break
            i = spare[int(rng.integers(len(spare)))]
            path.append(i)
            node = int(heads[i])
            seen.add(node)
        if path:
            flows[path] += 1
    reference = reference_network(n, tails, heads, caps)
    for i, f in enumerate(flows.tolist()):
        reference.add_flow(2 * i, f)
    scalar = Dinic(n)
    for u, v, c in zip(tails.tolist(), heads.tolist(), caps.tolist()):
        scalar.add_edge(u, v, c)
    for i, f in enumerate(flows.tolist()):
        scalar.add_flow(2 * i, f)
    bulk = Dinic(n)
    bulk.add_edges(tails, heads, caps, flows)
    want = reference.max_flow(0, n - 1)
    for ours in (scalar, bulk):
        assert ours.max_flow(0, n - 1) == want
        assert_same_residuals(ours, reference)


def test_bulk_then_scalar_arcs():
    """Arcs added in bulk after scalar arcs (and the reverse) keep the
    ids and twins of one-by-one insertion."""
    tails, heads, caps = random_arcs(5, 12, 60, 5)
    reference = reference_network(12, tails, heads, caps)
    ours = Dinic(12)
    for u, v, c in zip(tails[:20].tolist(), heads[:20].tolist(),
                       caps[:20].tolist()):
        ours.add_edge(u, v, c)
    assert ours.add_edges(tails[20:50], heads[20:50], caps[20:50]).tolist() \
        == list(range(40, 100, 2))
    for u, v, c in zip(tails[50:].tolist(), heads[50:].tolist(),
                       caps[50:].tolist()):
        ours.add_edge(u, v, c)
    assert ours.max_flow(0, 11) == reference.max_flow(0, 11)
    assert_same_residuals(ours, reference)


def test_bulk_rejects_what_add_edge_rejects():
    d = Dinic(3)
    with pytest.raises(IndexError):
        d.add_edges([0, 1], [1, 3], [1, 1])
    with pytest.raises(ValueError):
        d.add_edges([0], [1], [-1])
    with pytest.raises(ValueError):
        d.add_edges([0], [1], [2], flows=[3])
    with pytest.raises(ValueError):
        d.add_edges([0], [1], [2], flows=[-1])
    with pytest.raises(ValueError):
        d.add_edges([0, 1], [1], [2, 2])
    assert d._head == [] and d._cap == []


def assignment_network(graph, fleet, placements) -> tuple:
    """(tails, heads, caps) of the final-assignment flow network in
    insertion order: source -> every user, then per station (placement
    order) its covered users' arcs and its sink arc."""
    deployed = sorted(placements.items())
    n = graph.num_users
    sink = n + len(deployed) + 1
    tails, heads, caps = [0] * n, list(range(1, n + 1)), [1] * n
    for st, (k, loc) in enumerate(deployed):
        for u in graph.coverable_users(loc, fleet[k]):
            tails.append(1 + u)
            heads.append(n + 1 + st)
            caps.append(1)
        tails.append(n + 1 + st)
        heads.append(sink)
        caps.append(fleet[k].capacity)
    return sink, np.array(tails), np.array(heads), np.array(caps)


@pytest.mark.parametrize("seed", range(6))
def test_paper_assignment_networks_match(seed):
    """The networks the final assignment solves, at random placements
    over seeded paper scenarios, from an empty flow."""
    problem = paper_scenario(num_users=600, num_uavs=10, scale="bench",
                             seed=seed)
    SolverContext.from_problem(problem)
    graph, fleet = problem.graph, problem.fleet
    rng = np.random.default_rng(seed)
    for size in (1, 4, len(fleet)):
        uavs = rng.choice(len(fleet), size=size, replace=False)
        locs = rng.choice(graph.num_locations, size=size, replace=False)
        placements = {int(k): int(v) for k, v in zip(uavs, locs)}
        sink, tails, heads, caps = assignment_network(graph, fleet,
                                                      placements)
        reference = reference_network(sink + 1, tails, heads, caps)
        ours = Dinic(sink + 1)
        ours.add_edges(tails, heads, caps)
        assert ours.max_flow(0, sink) == reference.max_flow(0, sink)
        assert_same_residuals(ours, reference)


def deep_network(seed: int, width: int, depth: int) -> tuple:
    """A layered network ``depth`` layers deep and ``width`` wide, each
    node linked to two random nodes of the next layer, plus random arcs
    back to the same or an earlier layer: augmenting paths hundreds of
    arcs long that branch and share arcs."""
    rng = np.random.default_rng(seed)
    n = 2 + width * depth
    source, sink = 0, n - 1

    def node(layer: int, i: int) -> int:
        return 1 + layer * width + i

    arcs = [(source, node(0, i)) for i in range(width)]
    arcs += [(node(depth - 1, i), sink) for i in range(width)]
    for layer in range(depth - 1):
        for i in range(width):
            for j in rng.choice(width, size=2, replace=False).tolist():
                arcs.append((node(layer, i), node(layer + 1, j)))
    for _ in range(width * depth // 3):
        a, b = sorted(rng.integers(0, depth, size=2).tolist(), reverse=True)
        arcs.append((node(a, int(rng.integers(width))),
                     node(b, int(rng.integers(width)))))
    tails, heads = (np.array(side) for side in zip(*arcs))
    caps = rng.integers(1, 4, size=len(arcs))
    return n, source, sink, tails, heads, caps


@pytest.mark.parametrize("seed", range(4))
def test_deep_networks_match(seed):
    """Pushes hundreds of levels deep, still within the recursive
    reference's reach."""
    n, source, sink, tails, heads, caps = deep_network(seed, 3, 200)
    reference = reference_network(n, tails, heads, caps)
    ours = Dinic(n)
    ours.add_edges(tails, heads, caps)
    want = reference.max_flow(source, sink)
    assert want > 0
    assert ours.max_flow(source, sink) == want
    assert_same_residuals(ours, reference)


def test_ten_thousand_node_chain():
    """A 10^4-node chain: one augmenting path longer than the
    interpreter's recursion limit.  The flow is the chain's bottleneck
    and every arc carries it."""
    n = 10_000
    rng = np.random.default_rng(3)
    caps = rng.integers(5, 50, size=n - 1)
    caps[n // 2] = 4
    ours = Dinic(n)
    ids = ours.add_edges(np.arange(n - 1), np.arange(1, n), caps)
    assert ours.max_flow(0, n - 1) == 4
    np.testing.assert_array_equal(ours.flows_on(ids), np.full(n - 1, 4))
    assert ours.min_cut_reachable(0) == set(range(n // 2 + 1))
