"""Spatial demand-cell aggregation: the million-user scaling layer.

The paper's objective treats every ground user as an individual flow
node, which caps tractable instances far below the "millions of users"
north star.  Disaster-area planning work (Malandrino et al.) aggregates
users into spatial *demand cells* for exactly this reason: users are
binned into a square grid, each non-empty bin becomes one
:class:`DemandCell` with an integer demand (its member count), a
centroid, a covering radius (the farthest member's distance from the
centroid) and a minimum-rate requirement (the most demanding member's).

The aggregated problem is *conservative*: a cell is declared coverable
from a location only if its **farthest, most demanding** member provably
is (the shared coverage kernel pads the centroid distance by the cell
radius, and path loss is monotone in ground distance).  Any cell-level
assignment therefore induces a feasible per-user assignment, so the
aggregated served count is a lower bound on the per-user optimum:

* ``served_cells_units <= served_users_optimum`` (admissibility);
* ``sum(cell demands) == num_users`` (demand conservation);
* with **singleton cells** (radius 0, demand 1, centroid = the exact
  user position) the padded test degenerates to the per-user test
  bit-for-bit, so the aggregated solve runs the identical code path and
  returns identical results — the equivalence the oracle suite pins.

The fat-tailed hotspot generator clusters most users around a few
centres, so a modest grid (``cell_size_m`` of 100–200 m) collapses
10^6 users into a few hundred cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.problem import ProblemInstance
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import UserTable


@dataclass(frozen=True)
class DemandCell:
    """One aggregated spatial demand cell.

    Attributes
    ----------
    index:
        The cell's position in its cell list (stable, sorted by grid key).
    x, y:
        Member centroid (metres).
    radius_m:
        Maximum member ground distance from the centroid; the coverage
        test pads by this, so every member is provably in range.
    min_rate_bps:
        Maximum member minimum-rate requirement (most demanding member).
    demand:
        Integer member count — the cell's flow supply.
    members:
        Original user indices, sorted ascending.
    """

    index: int
    x: float
    y: float
    radius_m: float
    min_rate_bps: float
    demand: int
    members: tuple

    def __post_init__(self) -> None:
        if self.demand < 1:
            raise ValueError(f"cell demand must be >= 1, got {self.demand}")
        if self.radius_m < 0:
            raise ValueError(
                f"cell radius must be non-negative, got {self.radius_m}"
            )
        if len(self.members) != self.demand:
            raise ValueError(
                f"cell lists {len(self.members)} members but demand "
                f"{self.demand}"
            )


class CellTable:
    """Demand cells as columns, the way :class:`UserTable` holds users.

    Row ``c`` is cell ``c``: ``xy[c]`` its member centroid, ``radius_m[c]``
    its covering radius, ``min_rate_bps[c]`` its most demanding member's
    rate and ``demand[c]`` its member count.  The members of every cell,
    each cell's ascending, are ``member_order[member_starts[c]:
    member_starts[c + 1]]``.  Construction checks every row at once, as
    :class:`DemandCell` checks one.  The arrays are shared, not copied;
    nothing edits them in place.  :meth:`to_cells` builds the
    :class:`DemandCell` objects, for readers off the build and solve path.
    """

    __slots__ = ("xy", "radius_m", "min_rate_bps", "demand",
                 "member_order", "member_starts")

    def __init__(self, xy, radius_m, min_rate_bps, demand, member_order,
                 member_starts) -> None:
        xy = np.asarray(xy, dtype=float).reshape(-1, 2)
        radius_m = np.asarray(radius_m, dtype=float)
        min_rate_bps = np.asarray(min_rate_bps, dtype=float)
        demand = np.asarray(demand, dtype=np.int64)
        member_order = np.asarray(member_order, dtype=np.int64)
        member_starts = np.asarray(member_starts, dtype=np.int64)
        n = len(xy)
        if not (radius_m.shape == min_rate_bps.shape == demand.shape == (n,)
                and member_starts.shape == (n + 1,)):
            raise ValueError(
                f"cell columns disagree on the cell count {n}: radius "
                f"{radius_m.shape}, rate {min_rate_bps.shape}, demand "
                f"{demand.shape}, member starts {member_starts.shape}"
            )
        if n and not (demand >= 1).all():
            raise ValueError(
                f"cell demand must be >= 1, got {demand[demand < 1][0]}"
            )
        if n and not (radius_m >= 0).all():
            raise ValueError(
                "cell radius must be non-negative, got "
                f"{radius_m[~(radius_m >= 0)][0]}"
            )
        if member_starts[0] != 0 or member_starts[-1] != len(member_order) \
                or (np.diff(member_starts) != demand).any():
            raise ValueError("cell member lists disagree with the demands")
        self.xy = xy
        self.radius_m = radius_m
        self.min_rate_bps = min_rate_bps
        self.demand = demand
        self.member_order = member_order
        self.member_starts = member_starts

    @classmethod
    def of(cls, cells: "CellTable | list") -> "CellTable":
        """``cells`` itself if it is a table, else the table of a
        :class:`DemandCell` list, in list order."""
        if isinstance(cells, cls):
            return cells
        members = [m for c in cells for m in c.members]
        return cls(
            [[c.x, c.y] for c in cells], [c.radius_m for c in cells],
            [c.min_rate_bps for c in cells], [c.demand for c in cells],
            members, np.cumsum([0] + [len(c.members) for c in cells]),
        )

    def __len__(self) -> int:
        return len(self.demand)

    def take(self, index) -> "CellTable":
        """The cells at ``index`` (an index array), in its order, each
        with its members."""
        index = np.asarray(index, dtype=np.int64)
        demand = self.demand[index]
        starts = np.concatenate(([0], np.cumsum(demand)))
        # New cell i's j-th member is old member member_starts[index[i]] + j.
        shift = np.repeat(self.member_starts[index] - starts[:-1], demand)
        return CellTable(
            self.xy[index], self.radius_m[index], self.min_rate_bps[index],
            demand, self.member_order[shift + np.arange(starts[-1])], starts,
        )

    def to_cells(self) -> list:
        """One :class:`DemandCell` per row, ``index`` the row."""
        members = self.member_order.tolist()
        bounds = self.member_starts.tolist()
        return [
            DemandCell(
                index=c, x=x, y=y, radius_m=r, min_rate_bps=rate, demand=d,
                members=tuple(members[bounds[c]:bounds[c + 1]]),
            )
            for c, ((x, y), r, rate, d) in enumerate(zip(
                self.xy.tolist(), self.radius_m.tolist(),
                self.min_rate_bps.tolist(), self.demand.tolist(),
            ))
        ]


#: Dense cell ids index a ``bincount`` over the whole grid-key span, so
#: they are used only while the span is at most this many bins beyond
#: the user count.  Wider spans (users passed in directly can be
#: arbitrarily far apart) fall back to a 1-D ``np.unique``.
_DENSE_SPAN_SLACK = 1 << 16


def aggregate_users(users: "UserTable | list", cell_size_m: float) -> CellTable:
    """Bin users into a square grid of ``cell_size_m`` demand cells.

    Cells are ordered by grid key (lexicographic on the integer bin
    coordinates), so the output is a deterministic function of the user
    list.  Empty bins produce no cell; ``demand.sum() == len(users)``.

    ``users`` is a :class:`UserTable` (a :class:`User` list is converted
    once).  Each user's bin becomes a dense id ``(kx - kx_min) * span_y
    + (ky - ky_min)``; a ``bincount`` and a cumsum compact the ids to
    cell indices in key order, ``bincount`` sums each cell's members in
    user order, and one stable sort lists the members.  A key span too
    wide for a ``bincount`` ranks each axis and takes a 1-D ``np.unique``
    of the rank pairs instead.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    table = UserTable.of(users)
    n = len(table)
    if not n:
        return CellTable(np.zeros((0, 2)), [], [], [], [], [0])
    xy, rates = table.xy, table.min_rate_bps
    keys = np.floor_divide(xy, float(cell_size_m))
    if np.abs(keys).max() >= 2.0 ** 62:
        raise ValueError(
            f"user coordinates up to {np.abs(xy).max()} m are too far out "
            f"for {cell_size_m} m cells"
        )
    keys = keys.astype(np.int64)
    kx, ky = keys[:, 0], keys[:, 1]
    span_x = int(kx.max()) - int(kx.min()) + 1
    span_y = int(ky.max()) - int(ky.min()) + 1
    if span_x * span_y <= n + _DENSE_SPAN_SLACK:
        dense = (kx - kx.min()) * span_y + (ky - ky.min())
        rank = np.cumsum(np.bincount(dense, minlength=span_x * span_y) > 0)
        cell = rank[dense] - 1
    else:
        # Rank each axis (order-preserving, each rank < n), then key on
        # the rank pair, which fits in int64.
        _, rx = np.unique(kx, return_inverse=True)
        _, ry = np.unique(ky, return_inverse=True)
        _, cell = np.unique(rx * (int(ry.max()) + 1) + ry,
                            return_inverse=True)
    num_cells = int(cell.max()) + 1
    counts = np.bincount(cell, minlength=num_cells)
    cx = np.bincount(cell, weights=xy[:, 0], minlength=num_cells) / counts
    cy = np.bincount(cell, weights=xy[:, 1], minlength=num_cells) / counts
    spread = np.hypot(xy[:, 0] - cx[cell], xy[:, 1] - cy[cell])
    # NumPy's stable sort is a radix sort on 16-bit keys.
    order = np.argsort(
        cell.astype(np.uint16) if num_cells <= 1 << 16 else cell,
        kind="stable",
    )
    starts = np.concatenate(([0], np.cumsum(counts)))
    return CellTable(
        np.column_stack((cx, cy)),
        np.maximum.reduceat(spread[order], starts[:-1]),
        np.maximum.reduceat(rates[order], starts[:-1]),
        counts, order, starts,
    )


def singleton_cells(users: "UserTable | list") -> CellTable:
    """One cell per user: radius 0, demand 1, centroid = exact position.

    The degenerate aggregation whose solve is bit-identical to the
    per-user path (see module docstring)."""
    table = UserTable.of(users)
    n = len(table)
    return CellTable(
        table.xy, np.zeros(n), table.min_rate_bps,
        np.ones(n, dtype=np.int64), np.arange(n), np.arange(n + 1),
    )


class CellCoverageGraph(CoverageGraph):
    """A coverage graph whose "users" are demand cells.

    The node set reuses the whole :class:`CoverageGraph` machinery (the
    coverage kernel, bitset caches, hop structure) with one user row per
    cell: its centroid and its most demanding member's rate; only the
    kernel's per-user pad changes — the cell radius instead of 0.0, so
    that *every* member of a coverable cell is provably within range and
    rate.  With singleton cells the pad is 0.0 and the test is
    bit-identical to the base class.  The cells are held as a
    :class:`CellTable` (``cell_table``); ``cells`` builds the
    :class:`DemandCell` objects on first read.
    """

    def __init__(self, cells: "CellTable | list", locations: list,
                 uav_range_m: float, channel=None, bandwidth_hz=None,
                 **kwargs) -> None:
        table = CellTable.of(cells)
        extra = {} if bandwidth_hz is None else {"bandwidth_hz": bandwidth_hz}
        extra.update(kwargs)
        super().__init__(
            users=UserTable(table.xy, table.min_rate_bps),
            locations=locations, uav_range_m=uav_range_m, channel=channel,
            **extra,
        )
        self._install_cells(table)

    @classmethod
    def over(cls, graph: CoverageGraph,
             cells: CellTable) -> "CellCoverageGraph":
        """The cell graph over ``graph``'s locations and radio model.

        Its location graph, hop caches and Steiner memo are ``graph``'s,
        shared by reference as :meth:`CoverageGraph.with_users` shares
        them: they depend on the locations and the range alone."""
        clone = graph._clone_locations(cls)
        clone._install_cells(cells)
        return clone

    def _install_cells(self, table: CellTable) -> None:
        """Set the cells: their centroid rows as the kernel's users, and
        the pad and demand columns."""
        self._install_users(UserTable(table.xy, table.min_rate_bps))
        self.cell_table = table
        self.cell_radii = table.radius_m
        self.cell_demands = table.demand
        self._cells: "list | None" = None

    def carve(self, nodes, loc_index) -> "CellCoverageGraph":
        """The sub-graph over cells ``nodes`` and locations ``loc_index``
        (see :meth:`CoverageGraph.carve`)."""
        sub = self._clone_locations(type(self), loc_index)
        sub._install_cells(self.cell_table.take(nodes))
        return sub

    @property
    def cells(self) -> list:
        """The cells as :class:`DemandCell` objects, built from the table
        on first read.  Off the build and solve path."""
        if self._cells is None:
            self._cells = self.cell_table.to_cells()
        return self._cells

    @property
    def num_cells(self) -> int:
        return len(self.cell_table)

    @property
    def total_demand(self) -> int:
        """Total member count over all cells (== original user count)."""
        return int(self.cell_demands.sum())

    def _user_pad(self) -> np.ndarray:
        """Pad each centroid's ground distance by its cell radius: the
        worst-placed member sits at most this far out, and path loss is
        monotone in ground distance, so a cell passes the kernel's range
        and rate tests only if every member does.  Radius ``0.0`` leaves
        the per-user test bit-for-bit (``x + 0.0 == x``)."""
        return self.cell_radii

    def coverage_weight(self, loc_index: int, uav: UAV) -> int:
        """Total demand coverable from ``loc_index`` — the greedy's gain
        unit on cell graphs."""
        key = (loc_index, self._radio_key(uav), "wt")
        cached = self._coverage_cache.get(key)
        if cached is None:
            cached = int(
                self.cell_demands[self.coverable_array(loc_index, uav)].sum()
            )
            self._coverage_cache[key] = cached
        return cached


def aggregate_problem(
    problem: ProblemInstance, cell_size_m: "float | None" = None
) -> ProblemInstance:
    """Re-express a per-user problem over demand cells (same fleet, same
    candidate locations and location graph).

    ``cell_size_m=None`` builds singleton cells — the bit-identical
    degenerate aggregation used by the equivalence oracles.
    """
    graph = problem.graph
    users = graph.user_table()
    cells = (
        singleton_cells(users) if cell_size_m is None
        else aggregate_users(users, cell_size_m)
    )
    return ProblemInstance(
        graph=CellCoverageGraph.over(graph, cells), fleet=problem.fleet
    )
