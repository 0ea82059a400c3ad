"""The coverage graph ``G = (U ∪ V, E)`` of Section II-C.

``U`` is the set of ground users, ``V`` the set of candidate hovering
locations.  Location-location edges exist within the UAV-to-UAV range
``R_uav``; user-location edges exist when the user is within the UAV's
coverage radius ``R_user^k`` *and* its achievable rate meets the user's
minimum requirement.  Because the latter depends on the UAV's radio, the
coverage sets are exposed per (location, UAV) and cached by radio signature.

Every coverage set comes from one kernel over a block of locations: a
squared ground-distance prefilter against every user, then, on the pairs
it keeps, the ground distance (plus a per-user pad, ``0.0`` here and the
cell radius on demand-cell graphs), the 3-D range test, and the path
loss and Shannon rate test on the in-range pairs only.  The hop
matrix over the location graph is one all-sources bitset BFS
(:func:`repro.graphs.bfs.all_pairs_hops`).

This object is the single substrate every placement algorithm (approAlg and
all baselines) consumes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.channel.atg import AirToGroundChannel
from repro.channel.constants import DEFAULT_BANDWIDTH_HZ
from repro.channel.link import noise_power_dbm, shannon_rate_bps
from repro.channel.presets import URBAN
from repro.geometry.grid import SpatialHash
from repro.geometry.point import Point3D
from repro.graphs.adjacency import Graph
from repro.graphs.bfs import (
    UNREACHABLE,
    all_pairs_hops,
    bfs_hops,
    is_connected,
    multi_source_hops,
)
from repro.graphs.steiner import steiner_connect
from repro.network.uav import UAV
from repro.network.users import User, UserTable
from repro.util.bits import pack_indices, pack_pairs


class CoverageGraph:
    """Users, candidate locations, radio model and all derived structure."""

    def __init__(
        self,
        users: "UserTable | list",
        locations: list,
        uav_range_m: float,
        channel: "AirToGroundChannel | None" = None,
        bandwidth_hz: float = DEFAULT_BANDWIDTH_HZ,
        noise_figure_db: float = 7.0,
    ) -> None:
        if uav_range_m <= 0:
            raise ValueError(f"UAV range must be positive, got {uav_range_m}")
        for loc in locations:
            if loc.z <= 0:
                raise ValueError(
                    f"hovering locations must be airborne (z > 0), got {loc}"
                )
        self.locations: list = list(locations)
        self.uav_range_m = uav_range_m
        self.channel = channel if channel is not None else AirToGroundChannel(URBAN)
        self.bandwidth_hz = bandwidth_hz
        self.noise_dbm = noise_power_dbm(bandwidth_hz, noise_figure_db)
        self._loc_xyz = np.array(
            [[p.x, p.y, p.z] for p in self.locations], dtype=float
        ).reshape(len(self.locations), 3)

        self._install_users(users)

        self.location_graph = self._build_location_graph()
        self._coverage_cache: dict = {}
        self._hop_cache: dict = {}
        self._steiner_cache: dict = {}
        self._hop_matrix: "np.ndarray | None" = None

    # -- construction -------------------------------------------------------

    def _install_users(self, users: "UserTable | list") -> None:
        """Set the user population: its columns, from a
        :class:`UserTable` or (converted once) a :class:`User` list."""
        table = UserTable.of(users)
        self._user_xy = table.xy
        self._user_min_rate = table.min_rate_bps
        self._users: "list | None" = None

    @property
    def users(self) -> list:
        """The users as :class:`User` objects, built from the columns on
        first read and kept in step by the edits below.  Off the build
        and solve path: the coverage kernel reads the columns."""
        if self._users is None:
            self._users = self.user_table().to_users()
        return self._users

    def user_table(self) -> UserTable:
        """The user columns as a :class:`UserTable` (shared arrays)."""
        return UserTable(self._user_xy, self._user_min_rate)

    def _build_location_graph(self) -> Graph:
        graph = Graph(len(self.locations))
        if not self.locations:
            return graph
        loc_hash = SpatialHash(
            [p.ground() for p in self.locations], cell_size=self.uav_range_m
        )
        for j, loc in enumerate(self.locations):
            for k in loc_hash.query_disc(loc.ground(), self.uav_range_m):
                if k > j and self.locations[j].distance_to(self.locations[k]) <= self.uav_range_m:
                    graph.add_edge(j, k)
        return graph

    # -- incremental user updates -------------------------------------------
    #
    # The dynamic mission engine changes *users* every epoch while the
    # candidate locations — and therefore the location graph, the hop
    # matrix and the Steiner memo — stay fixed.  These methods update only
    # the user-dependent half of the structure, so an epoch re-solve skips
    # the hop matrix rebuild entirely.

    def replace_users(self, users: "UserTable | list") -> None:
        """Swap the user population in place.

        Invalidates only the user-dependent coverage cache; the location
        graph, hop matrix, hop cache and Steiner memo are untouched (they
        depend on locations alone).
        """
        self._install_users(users)
        self._coverage_cache = {}

    def move_users(self, xy: np.ndarray) -> None:
        """Move the existing users to new ground coordinates.

        ``xy`` is an ``(n, 2)`` array aligned with the users; each user
        keeps its minimum-rate requirement.  Equivalent to
        :meth:`replace_users` with the moved users.
        """
        xy = np.asarray(xy, dtype=float)
        if xy.shape != (self.num_users, 2):
            raise ValueError(
                f"xy shape {xy.shape} != ({self.num_users}, 2)"
            )
        self.replace_users(UserTable(xy.copy(), self._user_min_rate))

    def add_user(self, user: User) -> None:
        """Append one user: one new row of the user columns.  Drops the
        coverage cache like :meth:`replace_users`."""
        self._user_xy = np.append(
            self._user_xy, [[user.position.x, user.position.y]], axis=0
        )
        self._user_min_rate = np.append(self._user_min_rate, user.min_rate_bps)
        if self._users is not None:
            self._users.append(user)
        self._coverage_cache = {}

    def remove_user(self, index: int) -> None:
        """Delete user ``index``: one row out of the user columns, later
        users shift down by one.  Drops the coverage cache like
        :meth:`replace_users`."""
        self._user_xy = np.delete(self._user_xy, index, axis=0)
        self._user_min_rate = np.delete(self._user_min_rate, index)
        if self._users is not None:
            del self._users[index]
        self._coverage_cache = {}

    def with_users(self, users: "UserTable | list") -> "CoverageGraph":
        """A new graph over the same locations but a different user set.

        Location-derived structure (location graph, hop cache/matrix,
        Steiner memo) is *shared by reference* with ``self`` — it is
        deterministic in the locations, which are identical — so the clone
        costs only the user-side arrays.  The coverage cache starts empty.
        """
        clone = object.__new__(type(self))
        clone.locations = self.locations
        clone.uav_range_m = self.uav_range_m
        clone.channel = self.channel
        clone.bandwidth_hz = self.bandwidth_hz
        clone.noise_dbm = self.noise_dbm
        clone._loc_xyz = self._loc_xyz
        clone.location_graph = self.location_graph
        clone._hop_cache = self._hop_cache
        clone._steiner_cache = self._steiner_cache
        clone._hop_matrix = self._hop_matrix
        clone._coverage_cache = {}
        clone._install_users(users)
        return clone

    # -- sizes ---------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self._user_min_rate)

    @property
    def num_locations(self) -> int:
        return len(self.locations)

    # -- link evaluation -----------------------------------------------------

    def rate_bps(self, user_index: int, loc_index: int, uav: UAV) -> float:
        """Exact achievable rate of one user from a UAV at one location."""
        user: User = self.users[user_index]
        loc: Point3D = self.locations[loc_index]
        pl = self.channel.pathloss_db(user.position, loc)
        snr = 10.0 ** (
            (uav.tx_power_dbm + uav.antenna_gain_db - pl - self.noise_dbm) / 10.0
        )
        return shannon_rate_bps(snr, self.bandwidth_hz)

    def _radio_key(self, uav: UAV) -> tuple:
        return (uav.user_range_m, uav.tx_power_dbm, uav.antenna_gain_db)

    def radio_signature(self, uav: UAV) -> tuple:
        """The (range, power, gain) tuple identifying a UAV's radio; all
        coverage caches are keyed by it, so UAVs sharing a signature share
        coverage sets."""
        return self._radio_key(uav)

    @staticmethod
    def radio_within(small: UAV, big: UAV) -> bool:
        """Whether ``small``'s radio covers a subset of ``big``'s at every
        location: its user range is no longer and its EIRP (transmit power
        plus antenna gain) no higher.  The kernel's range test and its
        rate test, which is monotone in EIRP, then both pass for ``small``
        only where they pass for ``big`` — on per-user and padded-cell
        graphs alike, since the pad does not depend on the radio."""
        return (
            small.user_range_m <= big.user_range_m
            and small.tx_power_dbm + small.antenna_gain_db
            <= big.tx_power_dbm + big.antenna_gain_db
        )

    # -- the coverage kernel -------------------------------------------------

    #: Dense ``(location, user)`` pairs per kernel block: bounds the
    #: block's float temporaries to a few MB whatever ``m * n`` is.
    _KERNEL_PAIRS = 1 << 16

    #: Metres added to a layer's ground reach in the kernel's prefilter.
    #: Rounding moves the exact tests' boundary by far less, so the
    #: prefilter keeps every pair they could pass.
    _PREFILTER_SLACK_M = 1.0

    def _user_pad(self) -> np.ndarray:
        """Per-user pad added to the ground distance before the range and
        rate tests.  Users are points, so ``0.0`` (``x + 0.0 == x``);
        demand-cell graphs pad by the cell radius."""
        return np.zeros(self.num_users)

    def _in_range(self, loc_index: np.ndarray, range_m: float,
                  users: "np.ndarray | None" = None) -> tuple:
        """The geometric half of the coverage kernel over a block of
        locations: ``(rows, cols, pathloss)`` for every (location, user)
        pair whose padded 3-D distance is within ``range_m``.

        Per altitude layer (the vectorised path loss takes a scalar
        altitude) and in chunks of :attr:`_KERNEL_PAIRS`, a squared
        ground-distance prefilter keeps the pairs within the layer's
        ground reach ``sqrt(range² - alt²)`` plus a slack, less the pad;
        a layer above ``range_m`` is skipped whole.  The padded ground
        distance, the 3-D range test and the path loss then run on the
        kept pairs only, as the same elementwise expressions a dense
        pass would evaluate.  Pairs come out grouped by layer,
        location-major.

        ``users`` restricts the kernel to a block of user indices (the
        mission's arrival update); ``cols`` stay global user indices."""
        pad = self._user_pad()
        user_xy = self._user_xy
        if users is not None:
            pad, user_xy = pad[users], user_xy[users]
        n = len(user_xy)
        ux, uy = user_xy[:, 0], user_xy[:, 1]
        step = max(1, self._KERNEL_PAIRS // max(1, n))
        xyz = self._loc_xyz[loc_index]
        rows_max = min(step, len(loc_index))
        d2_buf, dy2_buf = np.empty((2, rows_max, n))
        kept_buf = np.empty((rows_max, n), dtype=bool)
        parts = []
        for alt in sorted(set(xyz[:, 2].tolist())):
            if range_m < alt:
                continue
            reach = (math.sqrt(max(range_m * range_m - alt * alt, 0.0))
                     + self._PREFILTER_SLACK_M - pad)
            limit = np.where(reach >= 0.0, reach * reach, -1.0)
            layer = np.flatnonzero(xyz[:, 2] == alt)
            for lo in range(0, layer.size, step):
                block = layer[lo:lo + step]
                d2, dy2 = d2_buf[:block.size], dy2_buf[:block.size]
                np.subtract(ux, xyz[block, 0, None], out=d2)
                np.multiply(d2, d2, out=d2)
                np.subtract(uy, xyz[block, 1, None], out=dy2)
                np.multiply(dy2, dy2, out=dy2)
                kept = np.flatnonzero(np.less_equal(
                    np.add(d2, dy2, out=d2), limit, out=kept_buf[:block.size]
                ))
                r = kept // n
                c = kept - r * n
                at = block[r]
                horiz = np.hypot(ux[c] - xyz[at, 0], uy[c] - xyz[at, 1]) \
                    + pad[c]
                inside = np.hypot(horiz, alt) <= range_m
                at, c, horiz = at[inside], c[inside], horiz[inside]
                parts.append((
                    loc_index[at], c if users is None else users[c],
                    self.channel.pathloss_vector_db(horiz, alt),
                ))
        if len(parts) == 1:
            return parts[0]
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                 np.zeros(0))
        return tuple(np.concatenate(field) for field in zip(empty, *parts))

    #: Half-width (dB) of the band around a user's SNR floor in which
    #: :meth:`_rate_ok` evaluates the rate expression itself.  The float
    #: error of that expression, seen as an SNR shift, is below 1e-9 dB
    #: for every floor in ``_SNR_FLOOR_RANGE_DB``.
    _SNR_BAND_DB = 1e-6
    _SNR_FLOOR_RANGE_DB = (-60.0, 300.0)

    def _snr_floor_db(self) -> np.ndarray:
        """Per-user SNR (dB) at which the Shannon rate equals the user's
        minimum, ``10 log10(2^(r_min / B) - 1)``; NaN where it lies
        outside :attr:`_SNR_FLOOR_RANGE_DB` (a zero, negative or huge
        minimum rate), so those users always take the exact path."""
        floor = self._coverage_cache.get("snr-floor")
        if floor is None:
            with np.errstate(divide="ignore", invalid="ignore",
                             over="ignore"):
                floor = 10.0 * np.log10(np.expm1(
                    self._user_min_rate / self.bandwidth_hz * math.log(2.0)
                ))
            lo, hi = self._SNR_FLOOR_RANGE_DB
            floor[~((floor >= lo) & (floor <= hi))] = np.nan
            self._coverage_cache["snr-floor"] = floor
        return floor

    def _rate_ok(self, cols: np.ndarray, loss: np.ndarray, uav: UAV,
                 need: "np.ndarray | None" = None) -> np.ndarray:
        """The rate half of the kernel: whether each in-range pair's
        Shannon rate under ``uav``'s radio meets its user's minimum.

        The rate is monotone in the SNR, so a pair passes exactly when
        ``loss + floor`` (``need``, per pair; computed when not given) is
        at most the radio's EIRP less the noise, ``floor`` being the
        user's :meth:`_snr_floor_db`.  Pairs further than
        :attr:`_SNR_BAND_DB` from that line are decided by the
        comparison; the others, and users without a floor, by the rate
        expression itself (:meth:`_rate_meets`), so the answer is that
        expression's on every pair."""
        if need is None:
            need = loss + self._snr_floor_db()[cols]
        with np.errstate(invalid="ignore"):
            gap = need - (uav.tx_power_dbm + uav.antenna_gain_db
                          - self.noise_dbm)
            ok = gap < -self._SNR_BAND_DB
            unsure = ~(np.abs(gap) > self._SNR_BAND_DB)
        if unsure.any():
            ok[unsure] = self._rate_meets(cols[unsure], loss[unsure], uav)
        return ok

    def _rate_meets(self, cols: np.ndarray, loss: np.ndarray,
                    uav: UAV) -> np.ndarray:
        """The Shannon rate test itself, pair by pair."""
        snr_db = uav.tx_power_dbm + uav.antenna_gain_db - loss - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        return rates >= self._user_min_rate[cols]

    def station_covers(self, stations: list,
                       users: "np.ndarray | None" = None) -> list:
        """Covered user indices (sorted int64 arrays) for each
        ``(location, uav)`` station, optionally only among the user block
        ``users``: one kernel call per distinct radio range over the
        stations' locations, then each station's rate test."""
        by_range: dict = {}
        for i, (_, uav) in enumerate(stations):
            by_range.setdefault(uav.user_range_m, []).append(i)
        covers: list = [None] * len(stations)
        for range_m, members in by_range.items():
            locs = np.array(sorted({stations[i][0] for i in members}),
                            dtype=np.int64)
            rows, cols, loss = self._in_range(locs, range_m, users)
            for i in members:
                loc, uav = stations[i]
                here = rows == loc
                found = cols[here]
                covers[i] = found[self._rate_ok(found, loss[here], uav)]
        return covers

    # -- coverage sets -------------------------------------------------------

    def coverable_users(self, loc_index: int, uav: UAV) -> list:
        """Users the given UAV could serve from ``loc_index``: within
        ``R_user^k`` and with rate >= their minimum requirement.  Cached per
        (location, radio signature)."""
        key = (loc_index, self._radio_key(uav))
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = self.coverable_array(loc_index, uav).tolist()
            self._coverage_cache[key] = cached
        return cached

    def coverable_array(self, loc_index: int, uav: UAV) -> np.ndarray:
        """:meth:`coverable_users` as a cached sorted int64 array (used by
        the vectorised gain bounds in the greedy).  Decoded from the
        radio's bits matrix when one is cached, else the kernel on this
        one location."""
        radio = self._radio_key(uav)
        key = (loc_index, radio, "np")
        cached = self._coverage_cache.get(key)
        if cached is None:
            matrix = self._coverage_cache.get(("matrix", radio))
            if matrix is not None:
                cached = np.flatnonzero(
                    np.unpackbits(matrix[loc_index], count=self.num_users)
                )
            else:
                _, cols, loss = self._in_range(
                    np.array([loc_index]), uav.user_range_m
                )
                cached = cols[self._rate_ok(cols, loss, uav)]
            self._coverage_cache[key] = cached
        return cached

    def coverable_bits(self, loc_index: int, uav: UAV) -> np.ndarray:
        """:meth:`coverable_users` as a packed ``uint8`` bitset (one bit per
        user, :func:`numpy.packbits` layout): a row of the radio's bits
        matrix when one is cached, else packed from
        :meth:`coverable_array`."""
        matrix = self._coverage_cache.get(("matrix", self._radio_key(uav)))
        if matrix is not None:
            return matrix[loc_index]
        return pack_indices(
            self.coverable_array(loc_index, uav), self.num_users
        )

    def coverage_bits_matrix(self, uav: UAV) -> np.ndarray:
        """Packed ``(m, words)`` coverage bitsets for *all* locations under
        one radio: the kernel on every location, cached per radio
        signature and used by
        :meth:`repro.core.context.SolverContext._build`.  The in-range
        pairs and their path loss depend on the range alone, so they are
        cached per range and radios differing only in power or gain
        share them; each radio then costs one rate test over the in-range
        pairs."""
        radio = self._radio_key(uav)
        key = ("matrix", radio)
        cached = self._coverage_cache.get(key)
        if cached is not None:
            return cached
        pairs_key = ("in-range", uav.user_range_m)
        pairs = self._coverage_cache.get(pairs_key)
        if pairs is None:
            pairs = self._in_range(
                np.arange(self.num_locations), uav.user_range_m
            )
            self._coverage_cache[pairs_key] = pairs
        rows, cols, loss = pairs
        need_key = ("need", uav.user_range_m)
        need = self._coverage_cache.get(need_key)
        if need is None:
            need = loss + self._snr_floor_db()[cols]
            self._coverage_cache[need_key] = need
        ok = self._rate_ok(cols, loss, uav, need)
        cached = pack_pairs(
            rows[ok], cols[ok], self.num_locations, self.num_users
        )
        self._coverage_cache[key] = cached
        return cached

    def coverage_count(self, loc_index: int, uav: UAV) -> int:
        return len(self.coverable_users(loc_index, uav))

    def coverage_weight(self, loc_index: int, uav: UAV) -> int:
        """Demand-weighted coverage — the unit the greedy's static gains
        are measured in.  Per-user graphs have unit demand everywhere, so
        this equals :meth:`coverage_count`; demand-cell graphs
        (:class:`repro.workload.aggregate.CellCoverageGraph`) override it
        with the coverable cells' total member count."""
        return self.coverage_count(loc_index, uav)

    def warm_coverage(self, radio_key: tuple, bits: np.ndarray) -> None:
        """Adopt a precomputed ``(m, words)`` bits matrix for one radio
        signature (used by
        :meth:`repro.core.context.SolverContext.install_into` so worker
        processes skip the kernel entirely; per-location lookups decode
        its rows lazily)."""
        self._coverage_cache.setdefault(("matrix", radio_key), bits)

    # -- hop structure over the location graph -------------------------------

    def hops_from(self, loc_index: int) -> list:
        """BFS hop distances from one location to all locations (cached;
        served from the all-pairs hop matrix when one has been built)."""
        row = self._hop_cache.get(loc_index)
        if row is None:
            if self._hop_matrix is not None:
                row = self._hop_matrix[loc_index].tolist()
            else:
                row = bfs_hops(self.location_graph, loc_index)
            self._hop_cache[loc_index] = row
        return row

    def hop_matrix(self) -> np.ndarray:
        """The all-pairs hop matrix as an ``int16`` array (``UNREACHABLE``
        entries are ``-1``).  Built once by one all-sources bitset BFS
        (:func:`repro.graphs.bfs.all_pairs_hops`) and cached; the per-run
        hot data of the appro_alg engine."""
        if self._hop_matrix is None:
            self._hop_matrix = all_pairs_hops(self.location_graph)
        return self._hop_matrix

    def warm_hops(self, matrix: np.ndarray) -> None:
        """Adopt a precomputed all-pairs hop matrix (worker processes get it
        from the shipped :class:`~repro.core.context.SolverContext` instead
        of re-running the all-sources BFS)."""
        matrix = np.asarray(matrix, dtype=np.int16)
        expected = (self.num_locations, self.num_locations)
        if matrix.shape != expected:
            raise ValueError(
                f"hop matrix shape {matrix.shape} != {expected}"
            )
        self._hop_matrix = matrix

    def hops_between(self, a: int, b: int) -> int:
        """Hop distance between two locations (-1 if disconnected)."""
        return self.hops_from(a)[b]

    def hops_to_set(self, sources: list) -> list:
        """Hop distance from each location to the nearest of ``sources``
        (the ``d_l`` of Section III-C)."""
        return multi_source_hops(self.location_graph, sources)

    def locations_connected(self, loc_indices: list) -> bool:
        """Whether the induced location subgraph is connected."""
        return is_connected(self.location_graph, loc_indices)

    def connect_terminals(self, terminals: list) -> "tuple[set, list]":
        """Section III-E connection step: MST over hop metric, expanded to
        shortest paths.  Returns (node set of G_j, expanded tree edges).
        Hop rows come from the per-instance cache, so repeated calls across
        anchor subsets stop re-running BFS per terminal; whole results are
        additionally memoised per exact terminal sequence — different
        anchor subsets often converge on the same greedy deployment.
        (Keyed by sequence, not set: MST tie-breaks may be order-
        sensitive.)  Callers must treat the returned set/list as
        read-only (they all do: the connect step copies before
        mutating)."""
        key = tuple(terminals)
        cached = self._steiner_cache.get(key)
        if cached is None:
            cached = steiner_connect(
                self.location_graph, terminals, hop_rows=self.hops_from
            )
            self._steiner_cache[key] = cached
        return cached

    def reachable_from(self, loc_index: int) -> list:
        """All locations in the same connected component as ``loc_index``."""
        row = self.hops_from(loc_index)
        return [j for j, d in enumerate(row) if d != UNREACHABLE]
