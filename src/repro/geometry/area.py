"""The disaster area and its partition into candidate hovering locations.

Section II-A: the service plane at altitude ``H_uav`` is split into
``m = (alpha/lambda) * (beta/lambda)`` square grids of side ``lambda``; the
grid centres are the candidate hovering locations.  At most one UAV may
hover per grid (collision avoidance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry.point import Point2D, Point3D

#: Default airspace ceiling ``gamma`` (metres, paper: 500).
AIRSPACE_CEILING_M = 500.0


def grid_divides(length: float, width: float, side: float) -> bool:
    """Whether squares of side ``side`` tile a ``length`` x ``width``
    area exactly (the paper's divisibility assumption)."""
    return all(
        abs(round(extent / side) * side - extent) <= 1e-9
        for extent in (length, width)
    )


@dataclass(frozen=True)
class DisasterArea:
    """A rectangular disaster zone.

    Parameters
    ----------
    length, width:
        Ground extent ``alpha`` x ``beta`` in metres (paper: 3000 x 3000).
    height:
        Airspace ceiling ``gamma`` in metres (paper: 500); hovering altitude
        must not exceed it.
    """

    length: float
    width: float
    height: float = AIRSPACE_CEILING_M

    def __post_init__(self) -> None:
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError(
                "area dimensions must be positive, got "
                f"{self.length} x {self.width} x {self.height}"
            )

    @property
    def ground_area(self) -> float:
        """Ground surface in square metres."""
        return self.length * self.width

    def contains_ground(self, p: Point2D) -> bool:
        return 0.0 <= p.x <= self.length and 0.0 <= p.y <= self.width

    def hovering_grid(self, side: float, altitude: float) -> "HoveringGrid":
        """Partition the plane at ``altitude`` into squares of side ``side``.

        ``length`` and ``width`` must be divisible by ``side`` (the paper's
        assumption); ``altitude`` must lie within the airspace.
        """
        if altitude <= 0 or altitude > self.height:
            raise ValueError(
                f"altitude {altitude} outside airspace (0, {self.height}]"
            )
        if side <= 0:
            raise ValueError(f"grid side must be positive, got {side}")
        if not grid_divides(self.length, self.width, side):
            raise ValueError(
                f"area {self.length} x {self.width} is not divisible by "
                f"grid side {side}"
            )
        return HoveringGrid(area=self, side=side, altitude=altitude,
                            cols=round(self.length / side),
                            rows=round(self.width / side))


@dataclass(frozen=True)
class HoveringGrid:
    """The grid of candidate hovering locations at a fixed altitude.

    Locations are indexed row-major: location ``j`` sits at column
    ``j % cols`` and row ``j // cols``.
    """

    area: DisasterArea
    side: float
    altitude: float
    cols: int
    rows: int
    _centers: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        centers = tuple(
            Point3D(
                (c + 0.5) * self.side,
                (r + 0.5) * self.side,
                self.altitude,
            )
            for r in range(self.rows)
            for c in range(self.cols)
        )
        object.__setattr__(self, "_centers", centers)

    @property
    def size(self) -> int:
        """Number of candidate hovering locations ``m``."""
        return self.cols * self.rows

    @property
    def centers(self) -> tuple:
        """All grid-centre locations ``v_1..v_m`` (row-major order)."""
        return self._centers

    def center(self, index: int) -> Point3D:
        return self._centers[index]

    def index_of(self, col: int, row: int) -> int:
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise IndexError(f"cell ({col}, {row}) outside grid "
                             f"{self.cols} x {self.rows}")
        return row * self.cols + col

    def cell_of(self, index: int) -> tuple:
        """(col, row) of location ``index``."""
        if not (0 <= index < self.size):
            raise IndexError(f"location index {index} outside [0, {self.size})")
        return index % self.cols, index // self.cols

    def containing_cell(self, p: Point2D) -> int:
        """Index of the grid cell whose square contains ground point ``p``."""
        if not self.area.contains_ground(p):
            raise ValueError(f"point {p} outside the disaster area")
        col = min(int(p.x / self.side), self.cols - 1)
        row = min(int(p.y / self.side), self.rows - 1)
        return self.index_of(col, row)
