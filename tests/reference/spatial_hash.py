"""A uniform-cell spatial hash, kept as a test reference.

Range queries by bucket scan: "all users within radius R of location v"
in O(n + m * hits) instead of O(n * m) pair scans.  The solver never calls
this; it builds coverage and the location graph with array kernels, and
the oracle tests (``test_location_graph_oracle``,
``test_coverage_kernel``, ``test_network_coverage``) check those kernels
against these scalar queries.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.geometry.point import Point2D, Point3D


class SpatialHash:
    """Uniform-grid spatial hash over 2-D ground positions.

    Points are bucketed by ``floor(coord / cell_size)``; a radius query scans
    only the buckets overlapping the query disc's bounding square and then
    filters by exact distance.
    """

    def __init__(self, points: Sequence[Point2D], cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = cell_size
        self._points = list(points)
        self._buckets: dict = defaultdict(list)
        for i, p in enumerate(self._points):
            self._buckets[self._key(p.x, p.y)].append(i)

    def _key(self, x: float, y: float) -> tuple:
        return (math.floor(x / self._cell_size), math.floor(y / self._cell_size))

    def __len__(self) -> int:
        return len(self._points)

    def query_disc(self, center: Point2D, radius: float) -> list:
        """Indices of stored points within ``radius`` of ``center``."""
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        cx0, cy0 = self._key(center.x - radius, center.y - radius)
        cx1, cy1 = self._key(center.x + radius, center.y + radius)
        r2 = radius * radius
        hits = []
        for cx in range(cx0, cx1 + 1):
            for cy in range(cy0, cy1 + 1):
                bucket = self._buckets.get((cx, cy))
                if not bucket:
                    continue
                for i in bucket:
                    p = self._points[i]
                    dx = p.x - center.x
                    dy = p.y - center.y
                    if dx * dx + dy * dy <= r2:
                        hits.append(i)
        return hits


class Grid:
    """Convenience wrapper pairing a set of aerial locations with a spatial
    hash over their ground projections.

    Used to find candidate-location neighbours within the UAV-to-UAV range
    (same altitude, so the 3-D distance equals the ground distance).
    """

    def __init__(self, locations: Sequence[Point3D], cell_size: float) -> None:
        self._locations = list(locations)
        self._hash = SpatialHash([p.ground() for p in self._locations], cell_size)

    def __len__(self) -> int:
        return len(self._locations)

    def locations(self) -> list:
        return list(self._locations)

    def neighbours_within(self, index: int, radius: float) -> list:
        """Indices of locations within ``radius`` of location ``index``
        (excluding ``index`` itself)."""
        center = self._locations[index].ground()
        return [i for i in self._hash.query_disc(center, radius) if i != index]

    def within_radius(self, center: Point2D, radius: float) -> list:
        return self._hash.query_disc(center, radius)


def pairwise_within(
    points: Iterable[Point3D], radius: float
) -> list:
    """All unordered pairs (i, j), i < j, with Euclidean distance <= radius.

    Small-input helper used in tests as an oracle for the spatial hash.
    """
    pts = list(points)
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i].distance_to(pts[j]) <= radius:
                out.append((i, j))
    return out
