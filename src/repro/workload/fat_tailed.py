"""Fat-tailed hotspot user distribution (Section IV-A, after Song et al.).

Hotspot centres are uniform over the area; hotspot popularity follows a
Pareto (power-law) distribution, so a few hotspots attract most users —
the "fat tail".  Each hotspot user is displaced from its centre by an
isotropic Gaussian; a small background fraction is uniform.  Samples
falling outside the area are redrawn (truncation, not clipping, so no
artificial mass piles up on the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.area import DisasterArea
from repro.network.users import DEFAULT_MIN_RATE_BPS, UserTable
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class FatTailedWorkload:
    """Pareto-weighted Gaussian hotspots over a uniform background.

    Parameters
    ----------
    num_hotspots:
        Number of hotspot centres.
    pareto_alpha:
        Pareto shape for hotspot popularity; smaller = heavier tail
        (Song et al. report exponents near 1.5 for human mobility).
    hotspot_sigma_m:
        Gaussian spread of users around their hotspot centre.
    background_fraction:
        Fraction of users placed uniformly instead of at hotspots.
    rate_classes:
        Optional mixed QoS classes as ``((fraction, min_rate_bps), ...)``;
        fractions must sum to 1.  Users are split into the classes at
        random (e.g. 80% voice at 2 kbps, 20% video at 2.5 Mbps).  When
        ``None`` every user requires ``min_rate_bps``.
    """

    num_hotspots: int = 12
    pareto_alpha: float = 1.5
    hotspot_sigma_m: float = 220.0
    background_fraction: float = 0.15
    min_rate_bps: float = DEFAULT_MIN_RATE_BPS
    rate_classes: "tuple | None" = None

    def __post_init__(self) -> None:
        if self.num_hotspots < 1:
            raise ValueError(
                f"need at least one hotspot, got {self.num_hotspots}"
            )
        if self.pareto_alpha <= 0:
            raise ValueError(
                f"pareto_alpha must be positive, got {self.pareto_alpha}"
            )
        if self.hotspot_sigma_m <= 0:
            raise ValueError(
                f"hotspot_sigma_m must be positive, got {self.hotspot_sigma_m}"
            )
        if not (0.0 <= self.background_fraction <= 1.0):
            raise ValueError(
                "background_fraction must be in [0, 1], got "
                f"{self.background_fraction}"
            )
        if self.rate_classes is not None:
            total = sum(f for f, _ in self.rate_classes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(
                    f"rate-class fractions must sum to 1, got {total}"
                )
            if any(f < 0 or r < 0 for f, r in self.rate_classes):
                raise ValueError("rate-class entries must be non-negative")

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
        centres = np.column_stack(
            [
                rng.uniform(0.0, area.length, size=self.num_hotspots),
                rng.uniform(0.0, area.width, size=self.num_hotspots),
            ]
        )
        weights = rng.pareto(self.pareto_alpha, size=self.num_hotspots) + 1.0
        weights /= weights.sum()

        num_background = int(round(count * self.background_fraction))
        num_hotspot_users = count - num_background

        background = np.column_stack([
            rng.uniform(0.0, area.length, size=num_background),
            rng.uniform(0.0, area.width, size=num_background),
        ]) if num_background else np.zeros((0, 2))

        assignments = rng.choice(
            self.num_hotspots, size=num_hotspot_users, p=weights
        )
        xy = np.concatenate([background, _truncated_gaussian(
            rng, centres[assignments], self.hotspot_sigma_m,
            area.length, area.width,
        )])

        if self.rate_classes is None:
            return UserTable(xy, self.min_rate_bps)
        # Mixed QoS: draw each user's class from the configured mix.
        fractions = [f for f, _ in self.rate_classes]
        rates = np.array([r for _, r in self.rate_classes], dtype=float)
        picks = rng.choice(len(rates), size=len(xy), p=fractions)
        return UserTable(xy, rates[picks])


#: Redraws per hotspot user before it falls back to its hotspot centre.
MAX_TRIES = 1000


def _truncated_gaussian(
    rng: np.random.Generator,
    centres: "np.ndarray",
    sigma: float,
    length: float,
    width: float,
) -> np.ndarray:
    """One ``(x, y)`` row per row of ``centres``: an isotropic Gaussian
    around it, redrawn until it lies in ``[0, length] x [0, width]``.

    Consumes exactly the stream of the per-user scalar loop (``x =
    rng.normal(cx, sigma)``, ``y = rng.normal(cy, sigma)``, redrawn up to
    :data:`MAX_TRIES` times, then the centre), but draws it in blocks of
    one ``(x, y)`` pair per user still waiting.  The pairs are walked in
    order: an accepted pair finishes its user, a rejected one keeps it.
    Every waiting user needs at least one more pair, so a block never
    draws past what the scalar loop would, and the points and the
    generator state come out bit-identical.
    """
    cx = centres[:, 0].tolist()
    cy = centres[:, 1].tolist()
    xs, ys = cx[:], cy[:]
    # Users finish in order, so the ones still waiting are always
    # cx[user:], and only cx[user] can have used tries.
    user = tries = 0
    while user < len(cx):
        draws = (sigma * rng.standard_normal(2 * (len(cx) - user))).tolist()
        for dx, dy in zip(draws[0::2], draws[1::2]):
            x, y = cx[user] + dx, cy[user] + dy
            if 0.0 <= x <= length and 0.0 <= y <= width:
                xs[user], ys[user] = x, y
                user, tries = user + 1, 0
            else:
                tries += 1
                if tries == MAX_TRIES:
                    user, tries = user + 1, 0
    return np.column_stack([xs, ys])
