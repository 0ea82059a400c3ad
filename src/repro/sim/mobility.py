"""User mobility (extension; Section II-C notes "users in the disaster zone
may move around ... we thus need to re-deploy the UAVs ... invoking the
proposed algorithm", citing the strategy of [37]).

:class:`GaussianWalk` moves the users one step at a time; the dynamics
engine (:func:`repro.dynamics.run_dynamic`) applies it on every mobility
tick and its re-solve policy decides when to re-deploy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussianWalk:
    """Per-step displacement ~ N(0, sigma^2) in each axis, reflected at the
    area boundary (users stay inside the disaster zone)."""

    sigma_m: float = 30.0

    def __post_init__(self) -> None:
        if self.sigma_m < 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma_m}")

    def step(self, xy: np.ndarray, bounds: tuple, rng: np.random.Generator) -> np.ndarray:
        moved = xy + rng.normal(0.0, self.sigma_m, size=xy.shape)
        lo_x, hi_x, lo_y, hi_y = bounds
        out = moved.copy()
        # Reflect into the box (one reflection suffices for sigma << span).
        out[:, 0] = np.clip(
            np.where(out[:, 0] < lo_x, 2 * lo_x - out[:, 0], out[:, 0]),
            lo_x, hi_x,
        )
        out[:, 0] = np.where(out[:, 0] > hi_x, 2 * hi_x - out[:, 0], out[:, 0])
        out[:, 1] = np.clip(
            np.where(out[:, 1] < lo_y, 2 * lo_y - out[:, 1], out[:, 1]),
            lo_y, hi_y,
        )
        out[:, 1] = np.where(out[:, 1] > hi_y, 2 * hi_y - out[:, 1], out[:, 1])
        return np.clip(out, [lo_x, lo_y], [hi_x, hi_y])
