"""Deployment objects: the output of every placement algorithm.

A deployment pins specific UAVs (by fleet index) to specific candidate
locations and assigns users to UAVs.  It is a plain value object —
feasibility checking lives in :mod:`repro.network.validate` so that tests
can validate algorithm outputs with independent code.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from numbers import Integral


@dataclass(frozen=True)
class Deployment:
    """A placement of UAVs plus a user assignment.

    Attributes
    ----------
    placements:
        Mapping ``uav_index -> location_index``.  Only deployed UAVs appear.
    assignment:
        Mapping ``user_index -> uav_index``.  Only served users appear; every
        value must be a deployed UAV.
    """

    placements: dict
    assignment: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        location_counts = Counter(self.placements.values())
        clashes = [loc for loc, c in location_counts.items() if c > 1]
        if clashes:
            raise ValueError(
                f"multiple UAVs share hovering location(s) {sorted(clashes)}"
            )
        missing = set(self.assignment.values()) - self.placements.keys()
        if missing:
            raise ValueError(
                f"users assigned to undeployed UAV(s) {sorted(missing)}"
            )

    @property
    def served_count(self) -> int:
        """Number of users served — the paper's objective value."""
        return len(self.assignment)

    @property
    def num_deployed(self) -> int:
        return len(self.placements)

    def locations_used(self) -> list:
        """Sorted list of occupied hovering locations."""
        return sorted(self.placements.values())

    def load_of(self, uav_index: int) -> int:
        """Number of users assigned to one UAV."""
        if uav_index not in self.placements:
            raise KeyError(f"UAV {uav_index} is not deployed")
        return sum(1 for k in self.assignment.values() if k == uav_index)

    def loads(self) -> dict:
        """Mapping uav_index -> assigned user count (zero included)."""
        out = {k: 0 for k in self.placements}
        for k in self.assignment.values():
            out[k] += 1
        return out

    def users_of(self, uav_index: int) -> list:
        """Sorted user indices served by one UAV."""
        if uav_index not in self.placements:
            raise KeyError(f"UAV {uav_index} is not deployed")
        return sorted(u for u, k in self.assignment.items() if k == uav_index)

    @staticmethod
    def empty() -> "Deployment":
        """The trivial deployment: nothing placed, nobody served."""
        return Deployment(placements={}, assignment={})


def whole_units(units) -> bool:
    """Whether ``units`` is a valid cell flow: an integer (Python or
    numpy, not ``bool``) of at least one."""
    return (
        isinstance(units, Integral) and not isinstance(units, bool)
        and units >= 1
    )


@dataclass(frozen=True)
class CellDeployment:
    """A placement of UAVs plus a demand-cell flow assignment.

    The aggregated counterpart of :class:`Deployment`: users are bundled
    into demand cells, and one cell may be *split* across several UAVs,
    so the assignment is a flow ``(cell_index, uav_index) -> units``
    rather than a single-valued mapping.  ``served_count`` is the total
    flow in units — i.e. users, since one unit is one member.

    Attributes
    ----------
    placements:
        Mapping ``uav_index -> location_index``.  Only deployed UAVs
        appear.
    flows:
        Mapping ``(cell_index, uav_index) -> units`` with integer values
        of at least one (:func:`whole_units`); every UAV mentioned must be
        deployed.
    """

    placements: dict
    flows: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        location_counts = Counter(self.placements.values())
        clashes = [loc for loc, c in location_counts.items() if c > 1]
        if clashes:
            raise ValueError(
                f"multiple UAVs share hovering location(s) {sorted(clashes)}"
            )
        missing = {
            k for (_c, k) in self.flows if k not in self.placements
        }
        if missing:
            raise ValueError(
                f"cells assigned to undeployed UAV(s) {sorted(missing)}"
            )
        bad = [
            (c, k) for (c, k), units in self.flows.items()
            if not whole_units(units)
        ]
        if bad:
            raise ValueError(
                f"non-positive or fractional flow on arc(s) {sorted(bad)}"
            )

    @property
    def served_count(self) -> int:
        """Total assigned units — the served-user objective value."""
        return sum(self.flows.values())

    @property
    def num_deployed(self) -> int:
        return len(self.placements)

    def locations_used(self) -> list:
        """Sorted list of occupied hovering locations."""
        return sorted(self.placements.values())

    def load_of(self, uav_index: int) -> int:
        """Units assigned to one UAV."""
        if uav_index not in self.placements:
            raise KeyError(f"UAV {uav_index} is not deployed")
        return sum(
            units for (_c, k), units in self.flows.items() if k == uav_index
        )

    def loads(self) -> dict:
        """Mapping uav_index -> assigned units (zero included)."""
        out = {k: 0 for k in self.placements}
        for (_c, k), units in self.flows.items():
            out[k] += units
        return out

    def cells_of(self, uav_index: int) -> list:
        """Sorted cell indices a UAV draws units from."""
        if uav_index not in self.placements:
            raise KeyError(f"UAV {uav_index} is not deployed")
        return sorted(c for (c, k) in self.flows if k == uav_index)

    def cell_totals(self) -> dict:
        """Mapping cell_index -> total units served from that cell."""
        out: dict = {}
        for (c, _k), units in self.flows.items():
            out[c] = out.get(c, 0) + units
        return out

    @staticmethod
    def empty() -> "CellDeployment":
        return CellDeployment(placements={}, flows={})
