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
from repro.geometry.point import Point3D
from repro.network.coverage import CoverageGraph
from repro.network.uav import UAV
from repro.network.users import User


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


def aggregate_users(users: list, cell_size_m: float) -> list:
    """Bin users into a square grid of ``cell_size_m`` demand cells.

    Cells are ordered by grid key (lexicographic on the integer bin
    coordinates), so the output is a deterministic function of the user
    list.  Empty bins produce no cell; ``sum(c.demand) == len(users)``.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell_size_m must be positive, got {cell_size_m}")
    if not users:
        return []
    xy = np.array(
        [[u.position.x, u.position.y] for u in users], dtype=float
    ).reshape(len(users), 2)
    rates = np.array([u.min_rate_bps for u in users], dtype=float)
    keys = np.floor_divide(xy, float(cell_size_m)).astype(np.int64)
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    num_cells = len(uniq)
    counts = np.bincount(inverse, minlength=num_cells)
    cx = np.bincount(inverse, weights=xy[:, 0], minlength=num_cells) / counts
    cy = np.bincount(inverse, weights=xy[:, 1], minlength=num_cells) / counts
    spread = np.hypot(xy[:, 0] - cx[inverse], xy[:, 1] - cy[inverse])
    radius = np.zeros(num_cells, dtype=float)
    np.maximum.at(radius, inverse, spread)
    min_rate = np.zeros(num_cells, dtype=float)
    np.maximum.at(min_rate, inverse, rates)
    order = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[order], np.arange(num_cells))
    bounds = np.append(starts, len(order))
    cells = []
    for c in range(num_cells):
        members = tuple(int(u) for u in order[bounds[c]:bounds[c + 1]])
        cells.append(DemandCell(
            index=c, x=float(cx[c]), y=float(cy[c]),
            radius_m=float(radius[c]), min_rate_bps=float(min_rate[c]),
            demand=int(counts[c]), members=members,
        ))
    return cells


def singleton_cells(users: list) -> list:
    """One cell per user: radius 0, demand 1, centroid = exact position.

    The degenerate aggregation whose solve is bit-identical to the
    per-user path (see module docstring)."""
    return [
        DemandCell(
            index=i, x=u.position.x, y=u.position.y, radius_m=0.0,
            min_rate_bps=u.min_rate_bps, demand=1, members=(i,),
        )
        for i, u in enumerate(users)
    ]


class CellCoverageGraph(CoverageGraph):
    """A coverage graph whose "users" are demand cells.

    The node set reuses the whole :class:`CoverageGraph` machinery (the
    coverage kernel, bitset caches, hop structure) with one pseudo-user
    per cell at the cell centroid; only the kernel's per-user pad changes
    — the cell radius instead of 0.0, so that *every* member of a
    coverable cell is provably within range and rate.  With singleton
    cells the pad is 0.0 and the test is bit-identical to the base
    class.
    """

    def __init__(self, cells: list, locations: list, uav_range_m: float,
                 channel=None, bandwidth_hz=None, **kwargs) -> None:
        pseudo_users = [
            User(Point3D(c.x, c.y, 0.0), c.min_rate_bps) for c in cells
        ]
        extra = {} if bandwidth_hz is None else {"bandwidth_hz": bandwidth_hz}
        extra.update(kwargs)
        super().__init__(
            users=pseudo_users, locations=locations,
            uav_range_m=uav_range_m, channel=channel, **extra,
        )
        self.cells: list = list(cells)
        self.cell_radii = np.array([c.radius_m for c in cells], dtype=float)
        self.cell_demands = np.array([c.demand for c in cells], dtype=np.int64)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

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
    candidate locations).

    ``cell_size_m=None`` builds singleton cells — the bit-identical
    degenerate aggregation used by the equivalence oracles.
    """
    graph = problem.graph
    cells = (
        singleton_cells(graph.users) if cell_size_m is None
        else aggregate_users(graph.users, cell_size_m)
    )
    cell_graph = CellCoverageGraph(
        cells=cells,
        locations=graph.locations,
        uav_range_m=graph.uav_range_m,
        channel=graph.channel,
        bandwidth_hz=graph.bandwidth_hz,
    )
    # The base graph stores only the derived noise power; copy it so the
    # cell graph's rate test matches the per-user one exactly.
    cell_graph.noise_dbm = graph.noise_dbm
    return ProblemInstance(graph=cell_graph, fleet=problem.fleet)
