"""Event sources feeding the dynamics mission loop.

Each source turns one slice of a :class:`~repro.dynamics.spec.DynamicSpec`
into payloads for the shared :class:`~repro.simnet.events.EventQueue`:

* :class:`Hotspots` + :class:`ChurnModel` — Poisson user arrivals around
  drifting demand hotspots, exponential dwell times (the ``"churn"``
  seed stream);
* :class:`Hotspots` drift and per-user Gaussian walks on the mobility
  tick (the ``"mobility"`` stream, reusing
  :class:`repro.sim.mobility.GaussianWalk`);
* fault injection rides on :meth:`repro.ops.faults.FaultSchedule.inject`
  unchanged (the ``"faults"`` stream).

Everything here is plain data + seeded draws: the engine owns the clock
and the handlers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np



@dataclass
class Hotspots:
    """Drifting demand centres users arrive around."""

    centers: np.ndarray               # (h, 2)
    velocities: np.ndarray            # (h, 2) unit directions
    speed_mps: float
    bounds: tuple                     # (lo_x, hi_x, lo_y, hi_y)

    @classmethod
    def draw(
        cls, count: int, bounds: tuple, speed_mps: float,
        rng: np.random.Generator,
    ) -> "Hotspots":
        lo_x, hi_x, lo_y, hi_y = bounds
        centers = np.column_stack([
            rng.uniform(lo_x, hi_x, size=count),
            rng.uniform(lo_y, hi_y, size=count),
        ])
        angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
        velocities = np.column_stack([np.cos(angles), np.sin(angles)])
        return cls(
            centers=centers, velocities=velocities,
            speed_mps=speed_mps, bounds=bounds,
        )

    def step(self, dt_s: float) -> None:
        """Drift every centre, reflecting at the area boundary."""
        if self.speed_mps <= 0:
            return
        lo_x, hi_x, lo_y, hi_y = self.bounds
        self.centers = self.centers + self.velocities * self.speed_mps * dt_s
        for axis, (lo, hi) in enumerate(((lo_x, hi_x), (lo_y, hi_y))):
            below = self.centers[:, axis] < lo
            above = self.centers[:, axis] > hi
            self.centers[below, axis] = 2 * lo - self.centers[below, axis]
            self.centers[above, axis] = 2 * hi - self.centers[above, axis]
            self.velocities[below | above, axis] *= -1.0
            self.centers[:, axis] = np.clip(self.centers[:, axis], lo, hi)


@dataclass
class ChurnModel:
    """Poisson arrivals around hotspots, exponential dwell (departures)."""

    arrival_rate_per_s: float
    mean_dwell_s: float
    sigma_m: float
    rng: np.random.Generator = field(repr=False, default=None)

    @property
    def active(self) -> bool:
        return self.arrival_rate_per_s > 0

    def next_arrival_gap_s(self) -> float:
        return float(self.rng.exponential(1.0 / self.arrival_rate_per_s))

    def draw_dwell_s(self) -> float:
        return float(self.rng.exponential(self.mean_dwell_s))

    def draw_position(self, hotspots: Hotspots) -> tuple:
        """A new user's ground position: Gaussian around a uniformly
        chosen hotspot, clipped to the area."""
        h = int(self.rng.integers(len(hotspots.centers)))
        cx, cy = hotspots.centers[h]
        x = cx + float(self.rng.normal(0.0, self.sigma_m))
        y = cy + float(self.rng.normal(0.0, self.sigma_m))
        lo_x, hi_x, lo_y, hi_y = hotspots.bounds
        return (
            float(np.clip(x, lo_x, hi_x)), float(np.clip(y, lo_y, hi_y))
        )

