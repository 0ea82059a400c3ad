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

from repro.core.problem import ProblemInstance
from repro.graphs.bfs import UNREACHABLE
from repro.network.coverage import CoverageGraph
from repro.util.bits import popcount_rows, unpack_indices

_INT16_INF = np.int16(np.iinfo(np.int16).max)


@dataclass(frozen=True)
class SolverContext:
    """Immutable precomputation shared by every subset evaluation.

    All fields are plain numpy arrays and tuples, so a context pickles
    cheaply and identically across process boundaries.
    """

    hop_matrix: np.ndarray      # (m, m) int16; UNREACHABLE = -1
    radio_keys: tuple           # distinct radio signatures, sorted
    coverage_bits: np.ndarray   # (r, m, words) uint8 packed user bitsets
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
        m = graph.num_locations

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

        words = np.packbits(np.zeros(graph.num_users, dtype=bool)).size
        bits = np.zeros((len(radio_keys), m, words), dtype=np.uint8)
        for key, r in key_row.items():
            bits[r, :, :] = graph.coverage_bits_matrix(representative[key])
        demands_arr = getattr(graph, "cell_demands", None)
        if (
            demands_arr is not None and demands_arr.size
            and int(demands_arr.max()) > 1
        ):
            # Demand-cell graph: weight every count by cell demand, so
            # the greedy's static bounds stay admissible in served
            # *units*.  Singleton-cell graphs (all demands 1)
            # deliberately fall through to the per-user path — weighted
            # sums equal popcounts there, and the identical code path is
            # what the bit-identity oracle relies on.
            weights = np.asarray(demands_arr, dtype=np.int64)
            unpacked = np.unpackbits(
                bits.reshape(-1, words), axis=1, count=graph.num_users
            )
            counts = (
                (unpacked.astype(np.int64) @ weights)
                .reshape(len(radio_keys), m).astype(np.int32)
            )
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
        as an int64 array; identical to :meth:`CoverageGraph.hops_to_set`
        but a masked matrix min instead of a multi-source BFS."""
        rows = self.hop_matrix[np.asarray(list(sources), dtype=np.int64)]
        masked = np.where(rows == UNREACHABLE, _INT16_INF, rows)
        nearest = masked.min(axis=0).astype(np.int64)
        nearest[nearest == int(_INT16_INF)] = UNREACHABLE
        return nearest

    def hops_to_set(self, sources: list) -> list:
        """List form of :meth:`hops_to_set_array` (the graph-API shape)."""
        return self.hops_to_set_array(sources).tolist()

    # -- coverage ------------------------------------------------------------

    def counts_for_uav(self, uav_index: int) -> np.ndarray:
        """Per-location coverage counts under UAV ``uav_index``'s radio."""
        return self.coverage_counts[self.fleet_radio_index[uav_index]]

    def coverage_rows(self, uav_index: int) -> np.ndarray:
        """The ``(m, words)`` packed coverage matrix under UAV
        ``uav_index``'s radio — one row per candidate location, ready for
        batched masked-popcount scoring (e.g.
        :meth:`repro.flow.bipartite.IncrementalAssignment.direct_gain_bounds`).
        A view, not a copy."""
        return self.coverage_bits[self.fleet_radio_index[uav_index]]

    def coverage_count(self, loc_index: int, uav_index: int) -> int:
        return int(self.counts_for_uav(uav_index)[loc_index])

    def coverable_users(self, loc_index: int, uav_index: int) -> list:
        """Decode one coverage bitset back to the sorted user-index list."""
        rows = self.coverage_bits[self.fleet_radio_index[uav_index]]
        return unpack_indices(rows[loc_index], self.num_users)

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
    ``K`` nodes).  Decisions are identical to the scalar ``_prunable``
    reference in :mod:`repro.core.approx`."""
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
