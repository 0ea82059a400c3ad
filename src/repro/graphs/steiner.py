"""Shortest-path Steiner expansion (the connection step of Section III-E).

Given terminals ``V'_j`` chosen by the greedy, the paper builds a complete
graph ``G'_j`` over the terminals weighted by hop distance in ``G``, finds
an MST ``T'_j``, and replaces each MST edge by a shortest path in ``G``;
the union is a connected subgraph ``G_j`` containing all terminals, and the
extra nodes become relay UAV positions.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.graphs.adjacency import Graph
from repro.graphs.bfs import UNREACHABLE, bfs_hops, shortest_hop_path
from repro.graphs.mst import minimum_spanning_tree


def steiner_connect(
    graph: Graph,
    terminals: Sequence,
    hop_rows: "object | None" = None,
) -> "tuple[set, list]":
    """Connect ``terminals`` in ``graph`` via MST-of-shortest-paths.

    Returns ``(nodes, tree_edges)`` where ``nodes`` is the node set of the
    connected subgraph ``G_j`` (terminals plus relays) and ``tree_edges`` is
    the list of terminal pairs that were joined, as
    ``(terminal_u, terminal_v, path)`` with ``path`` the node list used.

    Each MST edge's path is memoised on ``graph``
    (:attr:`~repro.graphs.adjacency.Graph.path_memo`, keyed by the
    terminal pair): every caller sharing the graph reuses it, and callers
    must treat the returned paths as read-only.

    ``hop_rows``, if given, is a callable ``node -> hop-distance row``
    replacing the per-terminal BFS (callers with a cached all-pairs hop
    matrix — e.g. :class:`repro.network.coverage.CoverageGraph` — pass
    theirs so the enumeration over anchor subsets amortises the BFS work).

    Raises ``ValueError`` if some terminal pair is disconnected in ``graph``.
    """
    terms = sorted(set(terminals))
    if not terms:
        return set(), []
    if len(terms) == 1:
        return {terms[0]}, []

    if hop_rows is None:
        # Pairwise hop distances among terminals via one BFS per terminal.
        rows = {t: bfs_hops(graph, t) for t in terms}
        hop_rows = rows.__getitem__
    # The terminals' hop metric; the first row naming an unreachable
    # terminal names the lowest disconnected pair.
    metric = [[row[u] for u in terms] for row in map(hop_rows, terms)]
    for a, row in enumerate(metric):
        if UNREACHABLE in row:
            b = row.index(UNREACHABLE)
            raise ValueError(
                f"terminals {terms[a]} and {terms[b]} are disconnected"
            )

    mst_edges = minimum_spanning_tree(metric)
    nodes: set = set(terms)
    expanded = []
    memo = graph.path_memo
    for a, b, _w in mst_edges:
        u, v = terms[a], terms[b]
        path = memo.get((u, v))
        if path is None:
            path = shortest_hop_path(graph, u, v)
            if path is None:  # cannot happen after the distance check above
                raise AssertionError(
                    f"no path between terminals {u} and {v}"
                )
            memo[(u, v)] = path
        nodes.update(path)
        expanded.append((u, v, path))
    return nodes, expanded


def connection_cost_lower_bound(graph: Graph, terminals: Sequence) -> int:
    """A lower bound on ``|G_j|`` for the given terminals.

    Any connected subgraph containing the terminals contains all of them
    and a path between the two farthest ones (``max_pair_hops + 1`` nodes;
    other terminals may lie on that very path, so the two counts cannot be
    added), hence

        |G_j| >= max(len(terminals), max(hop(u, v)) + 1).

    Used by the outer enumeration to prune anchor subsets that can never
    satisfy ``q_j <= K``; see DESIGN.md §3.
    """
    terms = sorted(set(terminals))
    if len(terms) <= 1:
        return len(terms)
    worst = 0
    for t in terms[:-1]:
        row = bfs_hops(graph, t)
        for other in terms:
            if other == t:
                continue
            d = row[other]
            if d == UNREACHABLE:
                return graph.num_nodes + 1  # impossible to connect
            worst = max(worst, d)
    return max(len(terms), worst + 1)
