"""Fat-tailed hotspot user distribution (Section IV-A, after Song et al.).

Hotspot centres are uniform over the area; hotspot popularity follows a
Pareto (power-law) distribution, so a few hotspots attract most users —
the "fat tail".  Each hotspot user is displaced from its centre by an
isotropic Gaussian; a small background fraction is uniform.  Samples
falling outside the area are redrawn (truncation, not clipping, so no
artificial mass piles up on the boundary).
"""

from __future__ import annotations

import math
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
            rng, centres, assignments, self.hotspot_sigma_m,
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

#: Hotspot-pair tests per numpy pass of :func:`_in_area_rows`: bounds the
#: pass's temporaries whatever the hotspot and user counts are.
_TEST_PAIRS = 1 << 16


def _last_inside(c: float, limit: float) -> float:
    """The largest float ``t`` with ``c + t <= limit`` (float addition).

    ``t -> c + t`` is monotone, so the ``t`` that pass form a ray.  The
    sum rounds to at most ``limit`` while its exact value is below (or,
    with ``limit``'s last bit even, at) the midpoint of ``limit`` and the
    next float up.  ``math.fsum`` rounds ``midpoint - c`` once: to the
    largest passing ``t``, or to the float just above it, which the
    loop steps back from."""
    up = math.nextafter
    t = math.fsum((limit, (up(limit, math.inf) - limit) / 2, -c))
    while c + t > limit:
        t = up(t, -math.inf)
    return t


def _in_area_rows(bounds: np.ndarray, d: np.ndarray) -> list:
    """Row ``h`` holds ``1`` at byte ``p`` where ``x_lo <= dx <= x_hi``
    and ``y_lo <= dy <= y_hi`` for ``(dx, dy) = d[p]`` and ``bounds[h] =
    (x_lo, x_hi, y_lo, y_hi)``, else ``0``.  One ``0`` byte more, one past
    the last pair, lets a reader at the block's end skip a bounds check.
    One numpy pass per group of hotspots."""
    # A NaN pair fails every comparison: the trailing 0 byte.
    dx = np.append(d[:, 0], np.nan)
    dy = np.append(d[:, 1], np.nan)
    step = max(1, _TEST_PAIRS // len(dx))
    rows = []
    for lo in range(0, len(bounds), step):
        b = bounds[lo:lo + step, :, None]
        block = ((dx >= b[:, 0]) & (dx <= b[:, 1]) & (dy >= b[:, 2])
                 & (dy <= b[:, 3])).tobytes()
        rows.extend(block[a:a + len(dx)]
                    for a in range(0, len(block), len(dx)))
    return rows


def _truncated_gaussian(
    rng: np.random.Generator,
    centres: np.ndarray,
    hotspot: np.ndarray,
    sigma: float,
    length: float,
    width: float,
) -> np.ndarray:
    """One ``(x, y)`` row per entry of ``hotspot``: an isotropic Gaussian
    around ``centres[hotspot[i]]``, redrawn until it lies in ``[0,
    length] x [0, width]``.

    Consumes exactly the stream of the per-user scalar loop (``x =
    rng.normal(cx, sigma)``, ``y = rng.normal(cy, sigma)``, redrawn up to
    :data:`MAX_TRIES` times, then the centre), but draws it in blocks of
    one ``(x, y)`` pair per user still waiting.  Every waiting user needs
    at least one more pair, so a block never draws past what the scalar
    loop would.

    The loop accepts ``x = cx + dx`` when ``0 <= x <= length``.  Float
    addition is monotone and ``cx + dx`` rounds to a negative number
    whenever the exact sum is negative, so that test is ``-cx <= dx <=
    hi`` with ``hi`` from :func:`_last_inside`, and likewise for ``y``.
    Each block tests its pairs once per hotspot (:func:`_in_area_rows`).
    The waiting users then walk the block in order: a user takes pair
    ``p`` if its own hotspot's row accepts it, else the next pair that
    row accepts within the tries it has left (``bytes.find``).  A user
    whose tries run past the block carries them into the next one.  The
    accepted points are the same float sums ``centre + d``, so the
    points and the generator state come out bit-identical.
    """
    n = len(hotspot)
    xy = centres[hotspot]
    bounds = np.array([
        (-cx, _last_inside(cx, length), -cy, _last_inside(cy, width))
        for cx, cy in centres.tolist()
    ]).reshape(len(centres), 4)
    ids = hotspot.tolist()
    # Users finish in order, so the ones still waiting are always
    # ids[user:], and only ids[user] can have used tries.
    user = tries = 0
    while user < n:
        pairs = n - user
        d = (sigma * rng.standard_normal(2 * pairs)).reshape(pairs, 2)
        rows = _in_area_rows(bounds, d)
        # Block user i takes pair i + (pairs the users up to i skipped):
        # only the users that skip a pair are written down.
        skipped_by, skips, fell_back = [], [], []
        p = skipped = 0
        for row in map(rows.__getitem__, ids[user:]):
            if row[p]:
                p += 1
                continue
            i = p - skipped
            left = MAX_TRIES if i else MAX_TRIES - tries
            q = row.find(1, p, p + left)
            if q < 0:
                if p + left > pairs:
                    tries = MAX_TRIES - left + pairs - p
                    break
                q = p + left - 1  # out of tries: the user keeps its centre
                fell_back.append(i)
            skipped_by.append(i)
            skips.append(q - p)
            skipped += q - p
            p = q + 1
        done = p - skipped
        taken = np.arange(done)
        if skips:
            extra = np.zeros(done, dtype=np.int64)
            extra[skipped_by] = skips
            taken += np.cumsum(extra)
        moved = xy[user:user + done]
        if fell_back:
            keep = np.ones(done, dtype=bool)
            keep[fell_back] = False
            moved[keep] += d[taken[keep]]
        else:
            moved += d[taken]
        user += done
    return xy
