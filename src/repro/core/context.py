"""Shared solver context: the per-run hot data of the appro_alg engine.

Algorithm 2's outer loop touches the same derived structure for every
anchor subset: hop distances in the candidate-location graph and per-radio
coverage sets.  :class:`SolverContext` precomputes both once, immutably and
pickle-friendly, so that

* the connectivity prune is evaluated for *all* subsets at once with
  vectorised numpy (see :func:`prunable_mask`), and
* worker processes of the parallel fan-out receive the whole structure a
  single time via the pool initializer and :meth:`install_into` it,
  instead of re-deriving it per process.

The context stores coverage as packed bitsets (one bit per user) keyed by
radio signature — UAVs sharing a radio share coverage — so union-coverage
sizes are popcounts (:mod:`repro.util.bits`), not Python set walks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.lazy import CoverTable
from repro.core.problem import ProblemInstance
from repro.flow.bipartite import cell_demands
from repro.graphs.bfs import UNREACHABLE
from repro.network.coverage import CoverageGraph
from repro.util.bits import popcount_rows, unpack_rows

_INT16_INF = np.int16(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class SolverContext:
    """Immutable precomputation shared by every subset evaluation.

    All fields are plain numpy arrays and tuples, so a context pickles
    cheaply and identically across process boundaries.
    """

    hop_matrix: np.ndarray      # (m, m) int16; UNREACHABLE = -1
    radio_keys: tuple           # distinct radio signatures, sorted
    #: (r, m, row bytes) uint8 packed user bitsets, rows padded to whole
    #: 64-bit words (:mod:`repro.util.bits`): the graph's per-radio
    #: matrices, stacked, and viewed as words where counted.
    coverage_bits: np.ndarray
    #: (r, m) int32 popcounts of the above; demand-weighted sums on a
    #: demand-cell problem with at least one demand > 1.
    coverage_counts: np.ndarray
    fleet_radio_index: tuple    # uav index -> row in radio_keys
    capacities: tuple           # uav index -> service capacity
    num_users: int
    build_seconds: float = 0.0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_problem(cls, problem: ProblemInstance) -> "SolverContext":
        """Precompute the context for one problem instance.

        Warms the problem's own graph caches as a side effect (the hop
        matrix and coverage sets are shared structure, not copies).
        """
        start = time.perf_counter()
        hop = problem.graph.hop_matrix()
        return cls._build(problem, hop, start)

    def updated(self, problem: ProblemInstance) -> "SolverContext":
        """Incremental rebuild for a problem whose *users* changed but whose
        candidate locations (and hence hop structure) did not.

        Reuses this context's hop matrix verbatim — skipping the
        all-pairs hop build of a cold :meth:`from_problem` — and
        recomputes only the user-dependent coverage bitsets/counts through
        the exact same code path, so the result is bit-identical to a cold
        build on an equivalent graph.
        """
        start = time.perf_counter()
        graph = problem.graph
        if self.hop_matrix.shape[0] != graph.num_locations:
            raise ValueError(
                f"context covers {self.hop_matrix.shape[0]} locations, "
                f"problem has {graph.num_locations}; locations must be "
                "unchanged for an incremental update"
            )
        graph.warm_hops(self.hop_matrix)
        return type(self)._build(problem, self.hop_matrix, start)

    @classmethod
    def _build(
        cls, problem: ProblemInstance, hop: np.ndarray, start: float
    ) -> "SolverContext":
        """The user-dependent half of context construction, shared by the
        cold (:meth:`from_problem`) and incremental (:meth:`updated`)
        paths so both produce bit-identical fields."""
        graph = problem.graph

        representative: dict = {}
        fleet_index = []
        for uav in problem.fleet:
            key = graph.radio_signature(uav)
            representative.setdefault(key, uav)
        radio_keys = tuple(sorted(representative))
        key_row = {key: r for r, key in enumerate(radio_keys)}
        fleet_index = tuple(
            key_row[graph.radio_signature(uav)] for uav in problem.fleet
        )

        bits = np.stack([graph.coverage_bits_matrix(representative[key])
                         for key in radio_keys])
        demands_arr = cell_demands(graph)
        if demands_arr is not None:
            # Demand-cell graph: weight every count by cell demand, so
            # the greedy's static bounds stay admissible in served
            # *units*.  Singleton-cell graphs (all demands 1)
            # deliberately fall through to the per-user path — weighted
            # sums equal popcounts there, and the identical code path is
            # what the bit-identity oracle relies on.
            weights = np.asarray(demands_arr, dtype=np.int64)
            unpacked = unpack_rows(bits, graph.num_users)
            counts = (unpacked.astype(np.int64) @ weights).astype(np.int32)
        else:
            counts = popcount_rows(bits).astype(np.int32)
        return cls(
            hop_matrix=hop,
            radio_keys=radio_keys,
            coverage_bits=bits,
            coverage_counts=counts,
            fleet_radio_index=fleet_index,
            capacities=tuple(uav.capacity for uav in problem.fleet),
            num_users=graph.num_users,
            build_seconds=time.perf_counter() - start,
        )

    def cover_table(self, problem: ProblemInstance) -> CoverTable:
        """The exact-gain path's per-problem :class:`CoverTable` for
        ``problem``, built on first use and kept with this context, so
        every greedy and connect call of a solve shares one."""
        table = self.__dict__.get("_cover_table")
        if table is None or not table.serves(problem):
            table = CoverTable(problem.graph, problem.fleet)
            object.__setattr__(self, "_cover_table", table)
        return table

    def __getstate__(self) -> dict:
        # The cover table memoises the covers of one process's graph: a
        # worker builds its own instead of unpickling the parent's.
        state = dict(self.__dict__)
        state.pop("_cover_table", None)
        return state

    def matches(self, problem: ProblemInstance) -> bool:
        """Cheap sanity check that a (possibly recycled) context belongs to
        this problem's shape."""
        return (
            self.hop_matrix.shape[0] == problem.num_locations
            and self.num_users == problem.num_users
            and len(self.capacities) == problem.num_uavs
        )

    # -- sizes ---------------------------------------------------------------

    @property
    def num_locations(self) -> int:
        return int(self.hop_matrix.shape[0])

    @property
    def num_uavs(self) -> int:
        return len(self.capacities)

    # -- hop structure -------------------------------------------------------

    def hops_to_set_array(self, sources: list) -> np.ndarray:
        """Hop distance from each location to the nearest of ``sources``
        as an int64 array (the ``d_l`` of Section III-C); identical to
        :func:`repro.graphs.bfs.multi_source_hops` but a masked matrix min
        instead of a multi-source BFS."""
        rows = self.hop_matrix[np.asarray(list(sources), dtype=np.int64)]
        masked = np.where(rows == UNREACHABLE, _INT16_INF, rows)
        nearest = masked.min(axis=0).astype(np.int64)
        nearest[nearest == int(_INT16_INF)] = UNREACHABLE
        return nearest

    def hops_to_set(self, sources: list) -> list:
        """List form of :meth:`hops_to_set_array` (what
        :class:`~repro.matroid.hop.HopCountingMatroid` takes)."""
        return self.hops_to_set_array(sources).tolist()

    # -- coverage ------------------------------------------------------------

    def counts_for_uav(self, uav_index: int) -> np.ndarray:
        """Per-location coverage counts under UAV ``uav_index``'s radio."""
        return self.coverage_counts[self.fleet_radio_index[uav_index]]

    def coverage_rows(self, uav_index: int) -> np.ndarray:
        """The ``(m, row bytes)`` packed coverage matrix under UAV
        ``uav_index``'s radio — one row per candidate location, ready for
        batched masked-popcount scoring (e.g.
        :meth:`repro.flow.bipartite.IncrementalAssignment.direct_gain_bounds`).
        A view, not a copy."""
        return self.coverage_bits[self.fleet_radio_index[uav_index]]

    # -- worker adoption -----------------------------------------------------

    def install_into(self, graph: CoverageGraph) -> None:
        """Warm ``graph``'s hop and coverage caches from this context.

        Worker processes call this once in the pool initializer: afterwards
        every ``hops_from`` / ``coverable_users`` lookup is a cache hit with
        values bit-identical to what the parent computed.
        """
        graph.warm_hops(self.hop_matrix)
        for r, key in enumerate(self.radio_keys):
            graph.warm_coverage(key, self.coverage_bits[r])


# -- vectorised subset-level operations -------------------------------------

_CHUNK = 8192


def prunable_mask(
    context: SolverContext, subsets: np.ndarray, num_uavs: int
) -> np.ndarray:
    """Vectorised form of the connectivity prune: ``True`` where an anchor
    subset provably cannot appear in any feasible solution (some pair
    disconnected, or the farthest pair's path alone already needs more than
    ``K`` nodes).  Decisions are identical to the scalar ``prunable``
    reference in ``tests/reference/subsets.py``."""
    n, s = subsets.shape
    out = np.zeros(n, dtype=bool)
    hop = context.hop_matrix
    for lo in range(0, n, _CHUNK):
        chunk = subsets[lo:lo + _CHUNK]
        pairwise = hop[chunk[:, :, None], chunk[:, None, :]]
        disconnected = (pairwise == UNREACHABLE).any(axis=(1, 2))
        worst = pairwise.max(axis=(1, 2)).astype(np.int64)
        need = np.maximum(s, worst + 1)
        out[lo:lo + chunk.shape[0]] = disconnected | (need > num_uavs)
    return out
