"""Shared solver context: the per-run hot data of the appro_alg engine.

Algorithm 2's outer loop touches the same derived structure for every
anchor subset: hop distances in the candidate-location graph and per-radio
coverage sets.  :class:`SolverContext` precomputes both once, immutably and
pickle-friendly, so that

* the connectivity prune and the optimistic upper bound are evaluated for
  *all* subsets at once with vectorised numpy (see :func:`prunable_mask`
  and :func:`subset_bounds`), and
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
from repro.util.bits import popcount, popcount_rows, unpack_indices

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
    coverage_counts: np.ndarray  # (r, m) int32 popcounts of the above
    best_counts: np.ndarray     # (m,) int32 elementwise max over radios
    fleet_radio_index: tuple    # uav index -> row in radio_keys
    capacities: tuple           # uav index -> service capacity
    num_users: int
    build_seconds: float = 0.0
    #: Per-cell integer demands for aggregated (demand-cell) problems with
    #: at least one demand > 1; ``None`` on per-user and singleton-cell
    #: problems, whose build path is untouched.  When set, the count
    #: arrays above hold demand-weighted sums instead of popcounts.
    demands: "tuple | None" = None

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
            # the greedy's static bounds and the subset bounds stay
            # admissible in served *units*.  Singleton-cell graphs (all
            # demands 1) deliberately fall through to the per-user path —
            # weighted sums equal popcounts there, and the identical code
            # path is what the bit-identity oracle relies on.
            demands = tuple(int(x) for x in demands_arr)
            weights = np.asarray(demands_arr, dtype=np.int64)
            unpacked = np.unpackbits(
                bits.reshape(-1, words), axis=1, count=graph.num_users
            )
            counts = (
                (unpacked.astype(np.int64) @ weights)
                .reshape(len(radio_keys), m).astype(np.int32)
            )
        else:
            demands = None
            counts = popcount_rows(bits).astype(np.int32)
        best = (
            counts.max(axis=0)
            if counts.size
            else np.zeros(m, dtype=np.int32)
        )
        return cls(
            hop_matrix=hop,
            radio_keys=radio_keys,
            coverage_bits=bits,
            coverage_counts=counts,
            best_counts=best,
            fleet_radio_index=fleet_index,
            capacities=tuple(uav.capacity for uav in problem.fleet),
            num_users=graph.num_users,
            build_seconds=time.perf_counter() - start,
            demands=demands,
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

    def hops_between(self, a: int, b: int) -> int:
        return int(self.hop_matrix[a, b])

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

    def union_coverage_count(self, loc_indices: list, uav_index: int) -> int:
        """Distinct users coverable from any of ``loc_indices`` under one
        UAV's radio (bitset union + popcount)."""
        if not loc_indices:
            return 0
        rows = self.coverage_bits[self.fleet_radio_index[uav_index]]
        union = np.bitwise_or.reduce(
            rows[np.asarray(loc_indices, dtype=np.int64)], axis=0
        )
        return popcount(union)

    def union_coverage_counts(
        self, loc_matrix: np.ndarray, uav_index: int
    ) -> np.ndarray:
        """Batched :meth:`union_coverage_count`: for an ``(n, t)`` matrix
        of location indices, the distinct coverable users of each row's
        union under one UAV's radio, as one stacked bitset OR-reduce plus
        :func:`repro.util.bits.popcount_rows`.  Row order is irrelevant
        (unions commute)."""
        locs = np.asarray(loc_matrix, dtype=np.int64)
        if locs.size == 0:
            return np.zeros(locs.shape[0], dtype=np.int64)
        rows = self.coverage_bits[self.fleet_radio_index[uav_index]]
        out = np.empty(locs.shape[0], dtype=np.int64)
        for lo in range(0, locs.shape[0], _UNION_CHUNK):
            stacked = rows[locs[lo:lo + _UNION_CHUNK]]     # (c, t, words)
            out[lo:lo + stacked.shape[0]] = popcount_rows(
                np.bitwise_or.reduce(stacked, axis=1)
            )
        return out

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
# Sub-chunk for the union-coverage OR-reduce, whose (chunk, m, words)
# temporary would otherwise dominate memory at paper scale.
_UNION_CHUNK = 512
# The union pass of ``subset_bounds`` prefers a float32 matmul over the
# unpacked (m, num_users) coverage matrix — exact, since the products are
# location counts far below 2**24 — but falls back to the byte-OR path
# when that matrix would not comfortably fit in memory.
_MATMUL_CELLS = 64_000_000


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


def subset_bounds(
    context: SolverContext, subsets: np.ndarray, num_uavs: int
) -> np.ndarray:
    """Optimistic upper bound on served users per anchor subset.

    Any deployment for anchor set ``A`` occupies a connected subgraph of at
    most ``K`` nodes containing ``A``; by the subgraph-size lemma (see
    :func:`repro.graphs.steiner.connection_cost_lower_bound`) a location
    ``v`` can be occupied only if

        max(|A ∪ {v}|, max-pairwise-hops(A ∪ {v}) + 1) <= K.

    Two admissible caps are intersected over the occupiable set:

    * **capacity pairing** — a UAV of capacity ``c`` at location ``v``
      serves at most ``min(c, best_counts[v])`` users, and locations are
      distinct, so pairing the top-``K`` occupiable coverage counts with
      the capacities (both descending) bounds any deployment, users
      double-counted in the UAVs' favour;
    * **union coverage** — served users are distinct and each is coverable
      (under *some* radio) from an occupiable location, so the popcount of
      the occupiable locations' any-radio coverage union bounds the total.

    The result is never below the true achievable served count, which
    makes bound-ordered skipping lossless.
    """
    n, s = subsets.shape
    m = context.num_locations
    caps = np.sort(np.asarray(context.capacities, dtype=np.int64))[::-1]
    top_k = min(num_uavs, m)
    caps = caps[:top_k]
    # Demand-cell contexts bound in served *units*: best_counts are
    # already demand-weighted, the union pass weights each covered cell
    # by its demand, and the global cap is the total demand.
    demand_vec = (
        None if context.demands is None
        else np.asarray(context.demands, dtype=np.int64)
    )
    total_units = (
        context.num_users if demand_vec is None else int(demand_vec.sum())
    )
    bits = context.coverage_bits
    if bits.shape[0]:
        any_bits = np.bitwise_or.reduce(bits, axis=0)      # (m, words)
    else:
        any_bits = np.zeros((m, bits.shape[2]), dtype=np.uint8)
    # Matmul form of the union popcount: (occupiable @ unpacked)[i, u] is
    # the number of occupiable locations covering user u, so the union
    # size is the count of nonzero columns per row — one sgemm instead of
    # a masked byte OR-reduce.  Exact (counts are integers < 2**24);
    # gated on the unpacked matrix fitting comfortably in memory.
    use_matmul = m * context.num_users <= _MATMUL_CELLS
    if use_matmul:
        unpacked = (
            np.unpackbits(any_bits, axis=1)[:, : context.num_users]
            .astype(np.float32)
        )
        # Keep the (rows, num_users) float32 product bounded too.
        matmul_rows = max(1, min(
            _UNION_CHUNK * 16, 32_000_000 // max(1, context.num_users)
        ))
    out = np.zeros(n, dtype=np.int64)
    hop = context.hop_matrix
    inf = np.int64(1) << 30
    for lo in range(0, n, _CHUNK):
        chunk = subsets[lo:lo + _CHUNK]
        rows = hop[chunk].astype(np.int64)                 # (c, s, m)
        rows[rows == UNREACHABLE] = inf
        farthest = rows.max(axis=1)                        # (c, m)
        pairwise = np.take_along_axis(
            rows, chunk[:, None, :].astype(np.int64), axis=2
        )                                                  # (c, s, s)
        worst = pairwise.max(axis=(1, 2))                  # (c,)
        # Non-anchor occupiable test: |A| + 1 nodes and the widened
        # diameter must fit in K.  Anchors of a non-pruned subset always
        # pass it (their farthest hop is within the anchor diameter).
        occupiable = (
            np.maximum(farthest, worst[:, None]) + 1 <= num_uavs
        )
        if s + 1 > num_uavs:
            anchor_mask = np.zeros((chunk.shape[0], m), dtype=bool)
            np.put_along_axis(
                anchor_mask, chunk.astype(np.int64), True, axis=1
            )
            occupiable &= anchor_mask
        counts = np.where(occupiable, context.best_counts[None, :], 0)
        top = -np.sort(-counts, axis=1)[:, :top_k]         # (c, top_k) desc
        bound = np.minimum(top, caps[None, :]).sum(axis=1)
        c = chunk.shape[0]
        union_pop = np.empty(c, dtype=np.int64)
        if use_matmul:
            for sub in range(0, c, matmul_rows):
                occ = occupiable[sub:sub + matmul_rows]
                prod = occ.astype(np.float32) @ unpacked
                if demand_vec is None:
                    union_pop[sub:sub + occ.shape[0]] = np.count_nonzero(
                        prod, axis=1
                    )
                else:
                    union_pop[sub:sub + occ.shape[0]] = (
                        (prod > 0).astype(np.int64) @ demand_vec
                    )
        else:
            for sub in range(0, c, _UNION_CHUNK):
                occ = occupiable[sub:sub + _UNION_CHUNK]
                masked = np.where(
                    occ[:, :, None], any_bits[None, :, :], np.uint8(0)
                )
                union_bits = np.bitwise_or.reduce(masked, axis=1)
                if demand_vec is None:
                    union_pop[sub:sub + occ.shape[0]] = popcount_rows(
                        union_bits
                    )
                else:
                    union_pop[sub:sub + occ.shape[0]] = (
                        np.unpackbits(
                            union_bits, axis=1, count=context.num_users
                        ).astype(np.int64) @ demand_vec
                    )
        bound = np.minimum(bound, union_pop)
        out[lo:lo + c] = np.minimum(bound, total_units)
    return out
