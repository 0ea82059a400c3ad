"""The paper's literal greedy, kept as a test reference: the matroid
interface (§II-E), the partition matroid ``M1`` (§III-B), the joint oracle
of a matroid intersection, the coverage function ``f(A)`` (§III-B: users
served by an *optimal* assignment, monotone submodular after Megiddo
[24]) and the Fisher–Nemhauser–Wolsey greedy, a 1/(ρ+1) = 1/3
approximation for ρ = 2 matroids (§III-E).

The solver never calls these.  Its anchored and pair greedies
(:mod:`repro.core.greedy`) are specialised forms of :func:`fnw_greedy`
over ``M1 ∩ M2``; ``tests/test_fnw_oracle.py`` pins them pick for pick.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Callable, Hashable, Iterable, Sequence

from repro.flow.bipartite import IncrementalAssignment
from repro.network.coverage import CoverageGraph


class Matroid(ABC):
    """Independence-oracle interface.

    A matroid ``M = (N, I)`` is a ground set ``N`` with a family ``I`` of
    "independent" subsets satisfying (i) the empty set is independent,
    (ii) the hereditary property, and (iii) the augmentation property.
    """

    @abstractmethod
    def ground_set(self) -> frozenset:
        """The finite ground set ``N``."""

    @abstractmethod
    def is_independent(self, subset: Iterable) -> bool:
        """Whether ``subset`` (⊆ N) is independent."""

    def can_extend(self, independent_subset: Iterable, element: Hashable) -> bool:
        """Whether ``independent_subset ∪ {element}`` stays independent.

        Concrete matroids may override with an incremental check; the
        default re-tests the union.
        """
        subset = set(independent_subset)
        if element in subset:
            return False
        subset.add(element)
        return self.is_independent(subset)

    def rank_upper_bound(self) -> int:
        """An upper bound on the matroid's rank (size of the largest
        independent set); defaults to |N|."""
        return len(self.ground_set())


class PartitionMatroid(Matroid):
    """Elements partitioned into blocks; at most ``capacity(block)`` elements
    of each block may be selected."""

    def __init__(
        self,
        ground: Iterable,
        block_of: Callable,
        capacity: "int | dict" = 1,
    ) -> None:
        self._ground = frozenset(ground)
        self._block_of = block_of
        if isinstance(capacity, int):
            if capacity < 0:
                raise ValueError(f"capacity must be non-negative, got {capacity}")
            self._capacity = {self._block_of(e): capacity for e in self._ground}
        else:
            self._capacity = dict(capacity)
        for e in self._ground:
            block = self._block_of(e)
            if block not in self._capacity:
                raise ValueError(f"no capacity given for block {block!r}")

    @classmethod
    def uav_placement(cls, num_uavs: int, num_locations: int) -> "PartitionMatroid":
        """The paper's ``M1``: pairs (k, v_j), each UAV k used at most once."""
        ground = [
            (k, j) for k in range(num_uavs) for j in range(num_locations)
        ]
        return cls(ground, block_of=lambda pair: pair[0], capacity=1)

    def ground_set(self) -> frozenset:
        return self._ground

    def is_independent(self, subset: Iterable) -> bool:
        elements = set(subset)
        if not elements <= self._ground:
            return False
        counts = Counter(self._block_of(e) for e in elements)
        return all(c <= self._capacity[b] for b, c in counts.items())

    def can_extend(self, independent_subset: Iterable, element: Hashable) -> bool:
        if element not in self._ground:
            return False
        subset = set(independent_subset)
        if element in subset:
            return False
        block = self._block_of(element)
        used = sum(1 for e in subset if self._block_of(e) == block)
        return used + 1 <= self._capacity[block]

    def rank_upper_bound(self) -> int:
        return sum(self._capacity.values())


def independent_in_all(matroids: Sequence, subset: Iterable) -> bool:
    """Whether ``subset`` is independent in every matroid."""
    elements = set(subset)
    return all(m.is_independent(elements) for m in matroids)


def can_extend_all(
    matroids: Sequence, independent_subset: Iterable, element: Hashable
) -> bool:
    """Whether adding ``element`` preserves independence in every matroid."""
    subset = set(independent_subset)
    return all(m.can_extend(subset, element) for m in matroids)


class CoverageObjective:
    """Evaluates ``f(A)`` = max users served by the UAV placements in ``A``.

    Elements of ``A`` are pairs ``(uav_index, location_index)``.  Each call
    solves the Section II-D maximum assignment exactly (incremental
    augmenting paths reach the true maximum; see repro.flow.bipartite).
    """

    def __init__(self, graph: CoverageGraph, fleet: Sequence) -> None:
        self.graph = graph
        self.fleet = list(fleet)

    def _engine(self, pairs: Iterable) -> IncrementalAssignment:
        engine = IncrementalAssignment(self.graph.num_users)
        for k, j in pairs:
            uav = self.fleet[k]
            engine.open((k, j), self.graph.coverable_users(j, uav), uav.capacity)
        return engine

    def value(self, pairs: Iterable) -> int:
        return self._engine(pairs).served_count

    def assignment(self, pairs: Iterable) -> dict:
        """Optimal assignment ``user -> uav_index`` for the placements."""
        return {
            user: station[0]
            for station, users in self._engine(pairs).assignment().items()
            for user in users
        }

    def __call__(self, pairs: Iterable) -> int:
        return self.value(pairs)


def fnw_pick(
    universe: Sequence,
    objective: Callable,
    matroids: Sequence,
    chosen: list,
    tie_key: "Callable | None" = None,
) -> "tuple | None":
    """One FNW round: the element of ``universe`` that keeps ``chosen``
    independent in every matroid with the largest marginal gain, as
    ``(element, gain)``; ``None`` when no element is feasible.

    Among equal gains the smallest ``tie_key(element)`` wins; without a
    key, the first such element in ``universe`` order.
    """
    current_value = objective(chosen)
    best = None
    for position, element in enumerate(universe):
        if element in chosen:
            continue
        if not can_extend_all(matroids, chosen, element):
            continue
        gain = objective(chosen + [element]) - current_value
        rank = (-gain, position if tie_key is None else tie_key(element))
        if best is None or rank < best[0]:
            best = (rank, element, gain)
    return None if best is None else best[1:]


def fnw_greedy(
    ground_set: Iterable,
    objective: Callable,
    matroids: Sequence,
    max_size: "int | None" = None,
) -> list:
    """Textbook FNW greedy: repeatedly add the feasible element with the
    largest marginal gain until no feasible element improves the objective.

    Achieves a 1/(ρ+1) approximation for monotone submodular ``objective``
    under ρ matroid constraints.  ``objective`` takes a list of elements and
    returns a number; it is re-evaluated per candidate, so use this only
    on small instances.
    """
    universe = list(ground_set)
    chosen: list = []
    limit = max_size if max_size is not None else len(universe)
    while len(chosen) < limit:
        pick = fnw_pick(universe, objective, matroids, chosen)
        if pick is None or pick[1] <= 0:
            break
        chosen.append(pick[0])
    return chosen
