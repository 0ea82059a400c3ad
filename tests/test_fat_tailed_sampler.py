"""The block hotspot sampler against the per-user scalar loop it replaced.

``FatTailedWorkload.generate`` draws its truncated-Gaussian hotspot
points in blocks of ``rng.standard_normal``.  The promise is exactness:
the same points *and* the same generator state afterwards as the scalar
loop below (copied verbatim from the historical implementation), so
every scenario, fleet and seed-derived result downstream is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry.area import DisasterArea
from repro.network.users import users_from_points
from repro.util.rng import ensure_rng
from repro.workload import fat_tailed
from repro.workload.fat_tailed import FatTailedWorkload


def scalar_generate(self, area, count, seed=None):
    """The historical ``FatTailedWorkload.generate``: one scalar
    ``rng.normal`` pair per try, per user."""
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

    points = []
    if num_background:
        xs = rng.uniform(0.0, area.length, size=num_background)
        ys = rng.uniform(0.0, area.width, size=num_background)
        points.extend(zip(xs, ys))

    assignments = rng.choice(
        self.num_hotspots, size=num_hotspot_users, p=weights
    )
    for h in assignments:
        cx, cy = centres[h]
        # Redraw until inside the area (truncated Gaussian).
        for _ in range(1000):
            x = rng.normal(cx, self.hotspot_sigma_m)
            y = rng.normal(cy, self.hotspot_sigma_m)
            if 0.0 <= x <= area.length and 0.0 <= y <= area.width:
                points.append((x, y))
                break
        else:  # pragma: no cover - sigma tiny vs area, cannot trigger
            points.append((cx, cy))

    if self.rate_classes is None:
        return users_from_points(points, self.min_rate_bps)
    # Mixed QoS: draw each user's class from the configured mix.
    fractions = [f for f, _ in self.rate_classes]
    rates = [r for _, r in self.rate_classes]
    picks = rng.choice(len(rates), size=len(points), p=fractions)
    users = []
    for (x, y), cls in zip(points, picks):
        users.extend(users_from_points([(x, y)], rates[int(cls)]))
    return users


def _assert_same_stream(workload, area, count, seed):
    oracle_rng = np.random.default_rng(seed)
    block_rng = np.random.default_rng(seed)
    expected = scalar_generate(workload, area, count, oracle_rng)
    got = workload.generate(area, count, block_rng).to_users()
    assert got == expected
    assert block_rng.bit_generator.state == oracle_rng.bit_generator.state
    return got


SEEDS = range(25)


@pytest.mark.parametrize("seed", SEEDS)
def test_default_workload_matches_scalar_loop(seed):
    _assert_same_stream(
        FatTailedWorkload(), DisasterArea(3000.0, 3000.0), 1500, seed
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_many_rejections_match_scalar_loop(seed):
    """A small area under a wide Gaussian: most tries are rejected, so
    every block carries rejected pairs and several blocks are drawn."""
    workload = FatTailedWorkload(
        num_hotspots=3, hotspot_sigma_m=300.0, background_fraction=0.1
    )
    _assert_same_stream(workload, DisasterArea(200.0, 100.0), 120, seed)


@pytest.mark.parametrize("seed", range(5))
def test_fallback_to_centre_matches_scalar_loop(seed):
    """So small an area that most users exhaust their 1000 tries and
    fall back to their hotspot centre."""
    workload = FatTailedWorkload(
        num_hotspots=2, hotspot_sigma_m=300.0, background_fraction=0.0
    )
    area = DisasterArea(10.0, 10.0)
    users = _assert_same_stream(workload, area, 12, seed)
    centres = np.random.default_rng(seed).uniform(0.0, 10.0, size=4)
    centre_points = set(zip(centres[:2], centres[2:]))
    fell_back = [
        u for u in users if (u.position.x, u.position.y) in centre_points
    ]
    assert fell_back


@pytest.mark.parametrize("seed", SEEDS)
def test_zero_users_matches_scalar_loop(seed):
    assert _assert_same_stream(
        FatTailedWorkload(), DisasterArea(3000.0, 3000.0), 0, seed
    ) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_rate_classes_match_scalar_loop(seed):
    workload = FatTailedWorkload(
        rate_classes=((0.8, 2_000.0), (0.2, 2_500_000.0))
    )
    users = _assert_same_stream(
        workload, DisasterArea(1500.0, 1500.0), 400, seed
    )
    assert {u.min_rate_bps for u in users} <= {2_000.0, 2_500_000.0}


@pytest.mark.parametrize("seed", [0, 1])
def test_scale_cells_population_matches_scalar_loop(seed):
    """The 20,000-user population of the scale presets."""
    _assert_same_stream(
        FatTailedWorkload(), DisasterArea(3000.0, 3000.0), 20_000, seed
    )


@pytest.mark.parametrize("seed", range(3))
def test_more_hotspots_than_one_word_match_scalar_loop(seed):
    """80 hotspots: more than one 64-bit word of per-hotspot rows."""
    _assert_same_stream(
        FatTailedWorkload(num_hotspots=80, hotspot_sigma_m=400.0),
        DisasterArea(2000.0, 1500.0), 3000, seed,
    )


@pytest.mark.parametrize("seed", range(5))
def test_tries_carried_across_blocks_match_scalar_loop(seed, monkeypatch):
    """About one pair in 900 lands in a 25 m square under a 300 m
    Gaussian, so a user's tries outlast blocks of at most 20 pairs: two
    blocks of one size in a row mean no user finished in the first.
    Users whose carried tries reach the limit keep their centre; the
    others take a point."""
    sizes = []
    rows = fat_tailed._in_area_rows

    def recording(bounds, d):
        sizes.append(len(d))
        return rows(bounds, d)

    monkeypatch.setattr(fat_tailed, "_in_area_rows", recording)
    workload = FatTailedWorkload(
        num_hotspots=2, hotspot_sigma_m=300.0, background_fraction=0.0
    )
    users = _assert_same_stream(workload, DisasterArea(25.0, 25.0), 20, seed)
    assert any(a == b for a, b in zip(sizes, sizes[1:]))
    centres = np.random.default_rng(seed).uniform(0.0, 25.0, size=4)
    centre_points = set(zip(centres[:2], centres[2:]))
    kept = [u for u in users
            if (u.position.x, u.position.y) in centre_points]
    assert 0 < len(kept) < len(users)


@pytest.mark.parametrize("limit", [10.0, 25.0, 1500.0, 3000.0, 0.1, 2.0**52])
def test_hotspot_bounds_decide_the_scalar_test(limit):
    """``-c <= d <= _last_inside(c, limit)`` is ``0 <= c + d <= limit``
    for every float ``d``: checked on the floats next to both bounds, for
    centres across the area, at its edges and wherever ``limit - c`` is
    far below the ulp of ``limit``."""
    rng = np.random.default_rng(int(limit * 7) % 1000)
    centres = np.concatenate([
        rng.uniform(0.0, limit, size=300), [0.0, limit],
        np.nextafter(limit, 0.0) - rng.uniform(0.0, limit * 1e-12, size=20),
    ])
    steps = np.arange(-40, 41)
    for c in centres.tolist():
        high = fat_tailed._last_inside(c, limit)
        for bound in (-c, high):
            spread = np.nextafter(bound, np.inf) - bound
            for d in (bound + steps * spread).tolist() + [
                    np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)]:
                x = c + d
                assert (0.0 <= x <= limit) == (-c <= d <= high), (c, d)
