"""Geometry of the disaster zone: points and the grid of candidate hovering
locations.

The paper models the disaster zone as a 3-D box of length ``alpha``, width
``beta`` and height ``gamma``.  Users live on the ground plane (z = 0); UAVs
hover on a horizontal plane at altitude ``H_uav`` that is partitioned into
square grids of side ``lambda``; the grid centres are the candidate hovering
locations ``v_1..v_m`` (Section II-A).
"""

from repro.geometry.area import DisasterArea
from repro.geometry.point import Point2D, Point3D

__all__ = ["DisasterArea", "Point2D", "Point3D"]
