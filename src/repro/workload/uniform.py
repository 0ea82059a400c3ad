"""Uniformly distributed users — the control workload."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.area import DisasterArea
from repro.network.users import DEFAULT_MIN_RATE_BPS, UserTable
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class UniformWorkload:
    """Users placed independently and uniformly over the ground plane."""

    min_rate_bps: float = DEFAULT_MIN_RATE_BPS

    def generate(
        self,
        area: DisasterArea,
        count: int,
        seed: "int | np.random.Generator | None" = None,
    ) -> UserTable:
        """Generate ``count`` users inside ``area``, as columns."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        rng = ensure_rng(seed)
        xs = rng.uniform(0.0, area.length, size=count)
        ys = rng.uniform(0.0, area.width, size=count)
        return UserTable(np.column_stack([xs, ys]), self.min_rate_bps)
