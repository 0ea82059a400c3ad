"""Eulerian paths over doubled spanning trees (Section III-A analysis).

The approximation analysis duplicates ``K - 2`` of the ``K - 1`` edges of an
optimal spanning tree ``T*`` so that exactly two nodes have odd degree; the
resulting multigraph admits an Eulerian path with ``2K - 3`` edges, which is
then split into sub-paths of ``L`` nodes.  The solver never runs this —
it is Lemma 2's proof construct, kept as a test reference so the analysis
objects are executable and testable.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence


def eulerian_path_by_doubling(
    num_nodes: int, tree_edges: Sequence, keep_single: "tuple | None" = None
) -> list:
    """Duplicate all tree edges but one, then return an Eulerian path.

    Parameters
    ----------
    num_nodes:
        Number of tree nodes ``K``.
    tree_edges:
        The ``K - 1`` edges of a spanning tree as (u, v) pairs.
    keep_single:
        The one edge left un-duplicated, as an (u, v) pair.  Defaults to the
        first tree edge.  Its two endpoints become the odd-degree endpoints
        of the Eulerian path.

    Returns the path as a list of ``2K - 2`` node ids (``2K - 3`` edges).
    """
    edges = [(min(u, v), max(u, v)) for u, v in tree_edges]
    if num_nodes == 1 and not edges:
        return [0]
    if len(edges) != num_nodes - 1:
        raise ValueError(
            f"spanning tree over {num_nodes} nodes needs {num_nodes - 1} "
            f"edges, got {len(edges)}"
        )
    if len(set(edges)) != len(edges):
        raise ValueError("duplicate edges in spanning tree")
    if keep_single is None:
        keep = edges[0]
    else:
        keep = (min(keep_single), max(keep_single))
        if keep not in edges:
            raise ValueError(f"keep_single edge {keep} is not a tree edge")

    # Multigraph adjacency with edge multiplicities.
    multi: dict = defaultdict(lambda: defaultdict(int))
    for u, v in edges:
        count = 1 if (u, v) == keep else 2
        multi[u][v] += count
        multi[v][u] += count

    odd = [u for u in multi if sum(multi[u].values()) % 2 == 1]
    if sorted(odd) != sorted(keep):
        raise AssertionError("doubling construction must leave exactly the "
                             "kept edge's endpoints odd")

    # Hierholzer's algorithm starting from one odd-degree endpoint.
    stack = [keep[0]]
    path: list = []
    while stack:
        u = stack[-1]
        neighbours = multi[u]
        nxt = next((v for v, c in neighbours.items() if c > 0), None)
        if nxt is None:
            path.append(stack.pop())
        else:
            neighbours[nxt] -= 1
            multi[nxt][u] -= 1
            stack.append(nxt)
    path.reverse()
    expected_len = 2 * num_nodes - 2
    if len(path) != expected_len:
        raise AssertionError(
            f"Eulerian path has {len(path)} nodes, expected {expected_len}"
        )
    return path


def split_path(path: Sequence, segment_len: int) -> list:
    """Split a node path into consecutive segments of ``segment_len`` nodes.

    Matches the paper's split of ``P_Euler`` into ``Delta = ceil((2K-2)/L)``
    sub-paths: every segment has exactly ``segment_len`` nodes except
    possibly the last.
    """
    if segment_len <= 0:
        raise ValueError(f"segment length must be positive, got {segment_len}")
    nodes = list(path)
    return [nodes[i:i + segment_len] for i in range(0, len(nodes), segment_len)]


def is_eulerian_path(path: Sequence, edge_multiset: Iterable) -> bool:
    """Check that ``path`` traverses exactly the multiset of edges given."""
    want: dict = defaultdict(int)
    for u, v in edge_multiset:
        want[(min(u, v), max(u, v))] += 1
    got: dict = defaultdict(int)
    for a, b in zip(path, path[1:]):
        got[(min(a, b), max(a, b))] += 1
    return want == got
