"""Ground users (Section II-A).

Each user sits at ground coordinates ``(x, y, 0)`` and has a minimum data
rate requirement ``r_min`` (paper example: 2 kbps) that a serving UAV must
meet.

A population is held as columns, a :class:`UserTable`: the workload
generators return one, and :class:`~repro.network.coverage.CoverageGraph`
and the demand-cell aggregation read its arrays directly.  A
:class:`User` object exists only where a caller asks for one.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.geometry.point import Point2D, Point3D

DEFAULT_MIN_RATE_BPS = 2_000.0
"""Paper's example minimum data rate requirement (2 kbps)."""


@dataclass(frozen=True, slots=True)
class User:
    """One ground user with a position and a minimum-rate requirement."""

    position: Point3D
    min_rate_bps: float = DEFAULT_MIN_RATE_BPS

    def __post_init__(self) -> None:
        if self.position.z != 0.0:
            raise ValueError(
                f"users are ground nodes (z = 0), got z = {self.position.z}"
            )
        if not (math.isfinite(self.position.x)
                and math.isfinite(self.position.y)):
            raise ValueError(
                "user coordinates must be finite, got "
                f"({self.position.x}, {self.position.y})"
            )
        if not self.min_rate_bps >= 0:
            raise ValueError(
                f"min rate must be non-negative, got {self.min_rate_bps}"
            )

    @property
    def ground(self) -> Point2D:
        return self.position.ground()


class UserTable:
    """A user population as columns.

    ``xy`` is an ``(n, 2)`` float array of ground coordinates and
    ``min_rate_bps`` an ``(n,)`` float array of minimum rates (a scalar
    is broadcast).  Construction checks every row at once: coordinates
    must be finite and rates non-negative, as for :class:`User`.  The
    arrays are shared, not copied; nothing edits them in place.
    """

    __slots__ = ("xy", "min_rate_bps")

    def __init__(
        self, xy, min_rate_bps: "float | np.ndarray" = DEFAULT_MIN_RATE_BPS
    ) -> None:
        xy = np.asarray(xy, dtype=float)
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"user xy must have shape (n, 2), got {xy.shape}")
        rates = np.asarray(min_rate_bps, dtype=float)
        if rates.ndim == 0:
            rates = np.full(len(xy), float(rates))
        if rates.shape != (len(xy),):
            raise ValueError(
                f"min rates shape {rates.shape} != ({len(xy)},)"
            )
        if not np.isfinite(xy).all():
            bad = int(np.flatnonzero(~np.isfinite(xy).all(axis=1))[0])
            raise ValueError(
                f"user coordinates must be finite, got {tuple(xy[bad])} "
                f"for user {bad}"
            )
        if not (rates >= 0).all():
            bad = int(np.flatnonzero(~(rates >= 0))[0])
            raise ValueError(
                f"min rate must be non-negative, got {rates[bad]} for "
                f"user {bad}"
            )
        self.xy = xy
        self.min_rate_bps = rates

    @classmethod
    def of(cls, users: "UserTable | Sequence") -> "UserTable":
        """``users`` itself if it is a table, else the table of a
        :class:`User` sequence."""
        if isinstance(users, cls):
            return users
        return cls(
            [[u.position.x, u.position.y] for u in users],
            np.array([u.min_rate_bps for u in users], dtype=float),
        )

    def __len__(self) -> int:
        return len(self.xy)

    def take(self, index) -> "UserTable":
        """The rows at ``index`` (an index array or slice), in its order."""
        return UserTable(self.xy[index], self.min_rate_bps[index])

    def to_users(self) -> list:
        """One :class:`User` per row."""
        return [
            User(Point3D(x, y, 0.0), rate)
            for (x, y), rate in zip(self.xy.tolist(),
                                    self.min_rate_bps.tolist())
        ]


def users_from_points(
    points: "Iterable[Point2D] | Sequence",
    min_rate_bps: float = DEFAULT_MIN_RATE_BPS,
) -> list:
    """Lift ground points (Point2D or (x, y) pairs) into :class:`User`\\ s."""
    users = []
    for p in points:
        if isinstance(p, Point2D):
            x, y = p.x, p.y
        else:
            x, y = p
        users.append(User(Point3D(float(x), float(y), 0.0), min_rate_bps))
    return users
