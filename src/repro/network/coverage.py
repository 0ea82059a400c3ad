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
loss and Shannon rate test on the in-range pairs only.  The mission
world's per-station covers (:meth:`CoverageGraph.station_covers`) apply
the same expressions to each (station, user) pair directly, without the
prefilter.  The hop matrix over the location graph is one all-sources
bitset BFS (:func:`repro.graphs.bfs.all_pairs_hops`).

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
from repro.geometry.point import Point3D
from repro.graphs.adjacency import Graph
from repro.graphs.bfs import (
    UNREACHABLE,
    all_pairs_hops,
    bfs_hops,
    is_connected,
)
from repro.graphs.steiner import steiner_connect
from repro.network.uav import UAV
from repro.network.users import User, UserTable
from repro.util.bits import (
    drop_row,
    pack_indices,
    pack_pairs,
    packed_to_int,
    unpack_rows,
)


def _no_pairs() -> tuple:
    """The coverage kernel's ``(rows, cols, pathloss)`` with no pair."""
    return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
            np.zeros(0))


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

    #: Relative half-width of the band around ``uav_range_m`` in which
    #: :meth:`_build_location_graph` decides a pair by
    #: :meth:`Point3D.distance_to`'s expression.  Its ``** 2`` is the C
    #: library's ``pow``, which can differ from numpy's square by an ulp;
    #: the distance then moves by a few ulps, far inside the band.
    _RANGE_BAND = 1e-9

    #: Location pairs per block of :meth:`_build_location_graph`, an
    #: eighth of :attr:`_KERNEL_PAIRS`: each float temporary stays at
    #: 64 KB, below the allocator's default ``mmap`` threshold (blocks
    #: of :attr:`_KERNEL_PAIRS` raised ``dynamic-mission``'s peak RSS by
    #: ~1%).
    _GRAPH_PAIRS = 1 << 13

    def _build_location_graph(self) -> Graph:
        """Edges between locations within ``uav_range_m`` in 3-D, in the
        order a spatial hash with ``uav_range_m`` buckets finds them: for
        each location ``j`` in turn, the higher-indexed ``k`` its disc
        query returns, by bucket ``floor(x / R)``, then ``floor(y / R)``,
        then index.  BFS breaks ties by this neighbour order.

        One numpy pass per block of rows (at most :attr:`_GRAPH_PAIRS`
        pairs) keeps the pairs the hash would return: ``k`` in a bucket
        the query scans and ``dx*dx + dy*dy <= R*R``.  Their 3-D distance
        is then the same expression as :meth:`Point3D.distance_to`, with
        the pairs within :attr:`_RANGE_BAND` of the range decided by
        that method's own expression: ``math.sqrt`` of the three
        coordinate differences squared by ``** 2``, on Python floats
        (a float64 difference is the same in numpy and in Python)."""
        m = self.num_locations
        r = self.uav_range_m
        x, y, z = self._loc_xyz.T
        bx, by = np.floor(x / r), np.floor(y / r)
        scan = (np.floor((x - r) / r), np.floor((x + r) / r),
                np.floor((y - r) / r), np.floor((y + r) / r))
        step = max(1, self._GRAPH_PAIRS // max(1, m))
        found_j, found_k = [], []
        for lo in range(0, m - 1, step):
            hi = min(lo + step, m - 1)
            dx = x[lo + 1:] - x[lo:hi, None]
            dy = y[lo + 1:] - y[lo:hi, None]
            kept = np.flatnonzero(dx * dx + dy * dy <= r * r)
            row, col = np.divmod(kept, m - lo - 1)
            j, k = lo + row, lo + 1 + col
            hit = (k > j) & (bx[k] >= scan[0][j]) & (bx[k] <= scan[1][j]) \
                & (by[k] >= scan[2][j]) & (by[k] <= scan[3][j])
            j, k = j[hit], k[hit]
            ddx, ddy, ddz = x[j] - x[k], y[j] - y[k], z[j] - z[k]
            dist = np.sqrt(ddx * ddx + ddy * ddy + ddz * ddz)
            inside = dist <= r
            near = np.flatnonzero(np.abs(dist - r) <= self._RANGE_BAND * r)
            if near.size:
                inside[near] = [
                    math.sqrt(a ** 2 + b ** 2 + c ** 2) <= r
                    for a, b, c in zip(ddx[near].tolist(), ddy[near].tolist(),
                                       ddz[near].tolist())
                ]
            found_j.append(j[inside])
            found_k.append(k[inside])
        if not found_j:
            return Graph(m)
        j, k = np.concatenate(found_j), np.concatenate(found_k)
        order = np.lexsort((k, by[k], bx[k], j))
        return Graph.from_arrays(m, j[order], k[order])

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
        self._user_xy = drop_row(self._user_xy, index)
        self._user_min_rate = drop_row(self._user_min_rate, index)
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
        clone = self._clone_locations(type(self))
        clone._install_users(users)
        return clone

    def carve(self, nodes, loc_index) -> "CoverageGraph":
        """The sub-graph over users ``nodes`` and the ascending locations
        ``loc_index``, with this graph's radio model.

        Its location graph is the induced subgraph of this one
        (:meth:`Graph.induced`), which is the graph
        :meth:`_build_location_graph` builds over those locations: the
        same pairs are in range, and relabelling in ascending order keeps
        each neighbour list in the spatial hash's order."""
        sub = self._clone_locations(type(self), loc_index)
        sub._install_users(self.user_table().take(nodes))
        return sub

    def _clone_locations(self, cls: type,
                         loc_index=None) -> "CoverageGraph":
        """A ``cls`` instance with this graph's radio model and no users
        yet.  With ``loc_index`` ``None`` it has these locations and
        shares every location-derived structure by reference; else it has
        the ascending locations ``loc_index``, the induced location graph
        and empty hop caches."""
        clone = object.__new__(cls)
        clone.uav_range_m = self.uav_range_m
        clone.channel = self.channel
        clone.bandwidth_hz = self.bandwidth_hz
        clone.noise_dbm = self.noise_dbm
        if loc_index is None:
            clone.locations = self.locations
            clone._loc_xyz = self._loc_xyz
            clone.location_graph = self.location_graph
            clone._hop_cache = self._hop_cache
            clone._steiner_cache = self._steiner_cache
            clone._hop_matrix = self._hop_matrix
        else:
            loc_index = np.asarray(loc_index, dtype=np.int64)
            clone.locations = [self.locations[j] for j in loc_index.tolist()]
            clone._loc_xyz = self._loc_xyz[loc_index]
            clone.location_graph = self.location_graph.induced(loc_index)
            clone._hop_cache = {}
            clone._steiner_cache = {}
            clone._hop_matrix = None
        clone._coverage_cache = {}
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

        A squared ground-distance prefilter, in chunks of
        :attr:`_KERNEL_PAIRS` over the locations of every layer at or
        below ``range_m`` (a higher layer is skipped whole), keeps the
        pairs within the lowest such layer's ground reach
        ``sqrt(range² - alt²)`` plus a slack, less the pad: a superset of
        every layer's pairs.  Per altitude layer (the vectorised path
        loss takes a scalar altitude), the padded ground distance, the
        3-D range test and the path loss then run on the kept pairs
        only, as the same elementwise expressions a dense pass would
        evaluate.  Pairs come out grouped by layer, location-major.

        ``users`` restricts the kernel to a block of user indices (the
        mission's arrival update); ``cols`` stay global user indices."""
        pad = self._user_pad()
        user_xy = self._user_xy
        if users is not None:
            pad, user_xy = pad[users], user_xy[users]
        n = len(user_xy)
        ux, uy = user_xy[:, 0], user_xy[:, 1]
        xyz = self._loc_xyz[loc_index]
        alts = sorted(alt for alt in set(xyz[:, 2].tolist()) if alt <= range_m)
        if not alts:
            return _no_pairs()
        reach = (math.sqrt(max(range_m * range_m - alts[0] * alts[0], 0.0))
                 + self._PREFILTER_SLACK_M - pad)
        limit = np.where(reach >= 0.0, reach * reach, -1.0)
        low = np.flatnonzero(xyz[:, 2] <= range_m)
        step = max(1, self._KERNEL_PAIRS // max(1, n))
        rows_max = min(step, low.size)
        d2_buf, dy2_buf = np.empty((2, rows_max, n))
        kept_buf = np.empty((rows_max, n), dtype=bool)
        found_at, found_c = [], []
        for lo in range(0, low.size, step):
            block = low[lo:lo + step]
            d2, dy2 = d2_buf[:block.size], dy2_buf[:block.size]
            np.subtract(ux, xyz[block, 0, None], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(uy, xyz[block, 1, None], out=dy2)
            np.multiply(dy2, dy2, out=dy2)
            kept = np.flatnonzero(np.less_equal(
                np.add(d2, dy2, out=d2), limit, out=kept_buf[:block.size]
            ))
            r = kept // n
            found_at.append(block[r])
            found_c.append(kept - r * n)
        at_all = np.concatenate(found_at)
        c_all = np.concatenate(found_c)
        z = xyz[at_all, 2] if len(alts) > 1 else None
        parts = []
        for alt in alts:
            if z is None:
                at, c = at_all, c_all
            else:
                sel = np.flatnonzero(z == alt)
                at, c = at_all[sel], c_all[sel]
            if not at.size:
                continue
            horiz = np.hypot(ux[c] - xyz[at, 0], uy[c] - xyz[at, 1]) + pad[c]
            inside = np.hypot(horiz, alt) <= range_m
            at, c, horiz = at[inside], c[inside], horiz[inside]
            parts.append((
                loc_index[at], c if users is None else users[c],
                self.channel.pathloss_vector_db(horiz, alt),
            ))
        if len(parts) == 1:
            return parts[0]
        return tuple(
            np.concatenate(field) for field in zip(_no_pairs(), *parts)
        )

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

    @staticmethod
    def _eirp(radio: "UAV | float | np.ndarray") -> "float | np.ndarray":
        """EIRP (dBm) for the rate test: a :class:`UAV`'s transmit power
        plus antenna gain, or a given EIRP (a scalar, or one per pair)."""
        if isinstance(radio, UAV):
            return radio.tx_power_dbm + radio.antenna_gain_db
        return radio

    def _rate_ok(self, cols: np.ndarray, loss: np.ndarray,
                 radio: "UAV | float | np.ndarray",
                 need: "np.ndarray | None" = None) -> np.ndarray:
        """The rate half of the kernel: whether each in-range pair's
        Shannon rate under ``radio`` (a UAV, or an EIRP per pair, see
        :meth:`_eirp`) meets its user's minimum.

        The rate is monotone in the SNR, so a pair passes exactly when
        ``loss + floor`` (``need``, per pair; computed when not given) is
        at most the EIRP less the noise, ``floor`` being the user's
        :meth:`_snr_floor_db`.  Pairs further than :attr:`_SNR_BAND_DB`
        from that line are decided by the comparison; the others, and
        users without a floor, by the rate expression itself
        (:meth:`_rate_meets`), so the answer is that expression's on
        every pair."""
        eirp = self._eirp(radio)
        if need is None:
            need = loss + self._snr_floor_db()[cols]
        with np.errstate(invalid="ignore"):
            gap = need - (eirp - self.noise_dbm)
            ok = gap < -self._SNR_BAND_DB
            unsure = ~(np.abs(gap) > self._SNR_BAND_DB)
        if unsure.any():
            ok[unsure] = self._rate_meets(
                cols[unsure], loss[unsure],
                eirp[unsure] if isinstance(eirp, np.ndarray) else eirp,
            )
        return ok

    def _rate_meets(self, cols: np.ndarray, loss: np.ndarray,
                    radio: "UAV | float | np.ndarray") -> np.ndarray:
        """The Shannon rate test itself, pair by pair."""
        snr_db = self._eirp(radio) - loss - self.noise_dbm
        rates = self.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))
        return rates >= self._user_min_rate[cols]

    def station_covers(self, stations: list,
                       users: "np.ndarray | None" = None) -> list:
        """Covered user indices (sorted int64 arrays) for each
        ``(location, uav)`` station, optionally only among the sorted
        user block ``users``.

        Over every user, a station whose radio has a bits matrix cached
        (:meth:`coverage_bits_matrix`, left by the last solve on this
        graph) reads its location's row.  The other stations are tested
        directly, one block of stations against the users at a time: the
        kernel's padded ground distance, 3-D range test, per-layer path
        loss and rate test, each with the station's range and EIRP, on
        every (station, user) pair.  The kernel's prefilter only drops
        pairs the range test fails, so the answer is the kernel's."""
        covers: list = [None] * len(stations)
        direct = []
        for i, (loc, uav) in enumerate(stations):
            matrix = None if users is not None else self._coverage_cache.get(
                ("matrix", self._radio_key(uav))
            )
            if matrix is None:
                direct.append(i)
            else:
                covers[i] = np.flatnonzero(
                    unpack_rows(matrix[loc], self.num_users)
                )
        if not direct:
            return covers
        pad, user_xy = self._user_pad(), self._user_xy
        if users is not None:
            pad, user_xy = pad[users], user_xy[users]
        n = len(user_xy)
        ux, uy = user_xy[:, 0], user_xy[:, 1]
        xyz = self._loc_xyz[[stations[i][0] for i in direct]]
        range_m = np.array([stations[i][1].user_range_m for i in direct])
        eirp = np.array([self._eirp(stations[i][1]) for i in direct])
        step = max(1, self._KERNEL_PAIRS // max(1, n))
        for lo in range(0, len(direct), step):
            block = slice(lo, lo + step)
            x, y, alt = (xyz[block, axis, None] for axis in range(3))
            horiz = np.hypot(ux - x, uy - y) + pad
            pairs = np.flatnonzero(
                np.hypot(horiz, alt) <= range_m[block, None]
            )
            if not pairs.size:
                for i in direct[block]:
                    covers[i] = pairs
                continue
            row, cols = np.divmod(pairs, n)
            horiz = horiz.ravel()[pairs]
            loss = np.empty(pairs.size)
            pair_alt = alt.ravel()[row]
            for layer in set(pair_alt.tolist()):
                sel = pair_alt == layer
                loss[sel] = self.channel.pathloss_vector_db(horiz[sel], layer)
            if users is not None:
                cols = users[cols]
            ok = self._rate_ok(cols, loss, eirp[block][row])
            found = cols[ok]
            ends = np.cumsum(np.bincount(row[ok], minlength=alt.shape[0]))
            for i, start, end in zip(direct[block], [0, *ends[:-1].tolist()],
                                     ends.tolist()):
                covers[i] = found[start:end]
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
                    unpack_rows(matrix[loc_index], self.num_users)
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
        user, :mod:`repro.util.bits` layout): a row of the radio's bits
        matrix when one is cached, else packed from
        :meth:`coverable_array`."""
        matrix = self._coverage_cache.get(("matrix", self._radio_key(uav)))
        if matrix is not None:
            return matrix[loc_index]
        return pack_indices(
            self.coverable_array(loc_index, uav), self.num_users
        )

    def coverable_int(self, loc_index: int, uav: UAV) -> int:
        """:meth:`coverable_users` as an integer bitset (bit ``u`` = user
        ``u``), the cover the flow engine works on: built from
        :meth:`coverable_bits`, not cached here (see
        :class:`repro.core.lazy.CoverTable`)."""
        return packed_to_int(self.coverable_bits(loc_index, uav))

    def coverage_bits_matrix(self, uav: UAV) -> np.ndarray:
        """Packed ``(m, row bytes)`` coverage bitsets for *all* locations under
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
        """Adopt a precomputed ``(m, row bytes)`` bits matrix for one radio
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
