"""The dense Prim against the lazy-heap Prim it replaced, edge for edge.

:func:`repro.graphs.mst.minimum_spanning_tree` runs over a weight matrix;
the heap Prim over a :class:`~repro.graphs.adjacency.Graph` lives on as
``tests/reference/mst.py``.  On small-integer weights, where ties are the
rule, both must return the same edges in the same order: the connection
step expands them into relay paths in that order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.adjacency import Graph
from repro.graphs.bfs import all_pairs_hops
from repro.graphs.mst import minimum_spanning_tree
from tests.reference.mst import minimum_spanning_tree as heap_prim


def complete_graph(weights: list) -> Graph:
    n = len(weights)
    us, vs = np.triu_indices(n, k=1)
    return Graph.from_arrays(n, us, vs,
                             [weights[u][v] for u, v in zip(us, vs)])


@st.composite
def integer_matrices(draw):
    """Symmetric weights drawn from ``{1, 2, 3}``, n = 1..20."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.integers(1, 4, size=(n, n)), k=1)
    return (upper + upper.T).tolist()


@st.composite
def hop_metrics(draw):
    """Hop distances of a random connected graph, n = 1..20: the metric
    the connection step builds over its terminals."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    graph = Graph(n)
    order = rng.permutation(n)
    for a, b in zip(order, order[1:]):
        graph.add_edge(int(a), int(b))
    for _ in range(int(rng.integers(0, 2 * n))):
        a, b = (int(x) for x in rng.integers(0, n, size=2))
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b)
    return all_pairs_hops(graph).astype(np.int64).tolist()


@given(st.one_of(integer_matrices(), hop_metrics()))
@settings(max_examples=300, deadline=None)
def test_dense_prim_pops_the_heap_prims_edges_in_order(weights):
    edges = minimum_spanning_tree(weights)
    assert edges == heap_prim(complete_graph(weights))
    assert len(edges) == max(len(weights) - 1, 0)


def test_ties_go_to_the_lowest_tree_node_then_the_lowest_node():
    """All weights equal: every node joins from node 0, in index order."""
    weights = [[1] * 5 for _ in range(5)]
    assert minimum_spanning_tree(weights) == [
        (0, v, 1) for v in range(1, 5)
    ]
    assert minimum_spanning_tree(weights) == heap_prim(
        complete_graph(weights))


def test_array_rows_give_the_same_edges():
    rng = np.random.default_rng(3)
    upper = np.triu(rng.integers(1, 4, size=(12, 12)), k=1)
    weights = upper + upper.T
    assert minimum_spanning_tree(weights) == minimum_spanning_tree(
        weights.tolist())


def test_empty_and_single_node():
    assert minimum_spanning_tree([]) == []
    assert minimum_spanning_tree([[0]]) == []
