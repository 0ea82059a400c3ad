"""Tests for the workload generators and scenario presets."""

import numpy as np
import pytest

from repro.geometry.area import DisasterArea
from repro.workload.fat_tailed import FatTailedWorkload
from repro.workload.scenarios import (
    SCALES,
    ScenarioConfig,
    build_scenario,
    paper_scenario,
)
from repro.workload.uniform import UniformWorkload

AREA = DisasterArea(3000.0, 3000.0)


class TestUniformWorkload:
    def test_count_and_bounds(self):
        users = UniformWorkload().generate(AREA, 500, seed=0).to_users()
        assert len(users) == 500
        for u in users:
            assert AREA.contains_ground(u.ground)

    def test_deterministic(self):
        a = UniformWorkload().generate(AREA, 50, seed=7).to_users()
        b = UniformWorkload().generate(AREA, 50, seed=7).to_users()
        assert [u.position for u in a] == [u.position for u in b]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            UniformWorkload().generate(AREA, -1)


class TestFatTailedWorkload:
    def test_count_and_bounds(self):
        users = FatTailedWorkload().generate(AREA, 1000, seed=1).to_users()
        assert len(users) == 1000
        for u in users:
            assert AREA.contains_ground(u.ground)

    def test_deterministic(self):
        w = FatTailedWorkload()
        a = w.generate(AREA, 200, seed=5).to_users()
        b = w.generate(AREA, 200, seed=5).to_users()
        assert [u.position for u in a] == [u.position for u in b]

    def test_fat_tail_property(self):
        """Section IV-A: many users at few places.  Bin users into 36 grid
        cells: the top 20% of cells must hold far more than 20% of users
        (compare against the uniform control)."""
        def top_quintile_share(users):
            counts = np.zeros(36)
            for u in users:
                col = min(int(u.ground.x / 500.0), 5)
                row = min(int(u.ground.y / 500.0), 5)
                counts[row * 6 + col] += 1
            counts.sort()
            return counts[-7:].sum() / counts.sum()

        fat = FatTailedWorkload(num_hotspots=8).generate(AREA, 2000, seed=2)
        uni = UniformWorkload().generate(AREA, 2000, seed=2)
        fat, uni = fat.to_users(), uni.to_users()
        assert top_quintile_share(fat) > top_quintile_share(uni) + 0.15
        assert top_quintile_share(fat) > 0.5

    def test_background_fraction_one_is_uniformish(self):
        w = FatTailedWorkload(background_fraction=1.0)
        users = w.generate(AREA, 300, seed=3)
        assert len(users) == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            FatTailedWorkload(num_hotspots=0)
        with pytest.raises(ValueError):
            FatTailedWorkload(pareto_alpha=0.0)
        with pytest.raises(ValueError):
            FatTailedWorkload(hotspot_sigma_m=-1.0)
        with pytest.raises(ValueError):
            FatTailedWorkload(background_fraction=1.5)
        with pytest.raises(ValueError):
            FatTailedWorkload().generate(AREA, -5)


class TestScenarios:
    def test_scales_registered(self):
        assert {"paper", "bench", "small"} == set(SCALES)

    def test_paper_scenario_parameters(self):
        p = paper_scenario(num_users=500, num_uavs=8, scale="bench", seed=0)
        assert p.num_users == 500
        assert p.num_uavs == 8
        assert p.num_locations == 36
        assert p.graph.uav_range_m == 600.0
        assert all(50 <= u.capacity <= 300 for u in p.fleet)
        assert all(u.user_range_m == 500.0 for u in p.fleet)
        # All locations at H_uav = 300 m.
        assert all(loc.z == 300.0 for loc in p.graph.locations)

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError, match="known"):
            paper_scenario(scale="galactic")

    def test_deterministic_by_seed(self):
        a = paper_scenario(num_users=50, num_uavs=3, scale="small", seed=9)
        b = paper_scenario(num_users=50, num_uavs=3, scale="small", seed=9)
        assert [u.capacity for u in a.fleet] == [u.capacity for u in b.fleet]
        assert [u.position for u in a.graph.users] == [
            u.position for u in b.graph.users
        ]

    def test_config_overrides(self):
        config = ScenarioConfig().with_overrides(num_users=10, num_uavs=2)
        p = build_scenario(config, seed=0)
        assert p.num_users == 10 and p.num_uavs == 2

    def test_altitude_layers(self):
        config = SCALES["small"].with_overrides(
            num_users=40, num_uavs=3, altitude_layers_m=(200.0, 300.0)
        )
        p = build_scenario(config, seed=0)
        assert p.num_locations == 18  # 9 cells x 2 layers
        zs = {loc.z for loc in p.graph.locations}
        assert zs == {200.0, 300.0}
        # Vertically stacked cells (100 m apart) are UAV-to-UAV adjacent.
        assert p.graph.hops_between(0, 9) == 1

    def test_layered_candidates_never_hurt(self):
        from repro.core.approx import appro_alg

        single = build_scenario(
            SCALES["small"].with_overrides(num_users=150, num_uavs=4),
            seed=6,
        )
        layered = build_scenario(
            SCALES["small"].with_overrides(
                num_users=150, num_uavs=4,
                altitude_layers_m=(250.0, 300.0),
            ),
            seed=6,
        )
        served_single = appro_alg(single, s=2, gain_mode="fast").served
        served_layered = appro_alg(layered, s=2, gain_mode="fast").served
        assert served_layered >= 0.9 * served_single

    def test_rate_classes_mixed(self):
        w = FatTailedWorkload(
            rate_classes=((0.8, 2_000.0), (0.2, 2.5e6)),
        )
        users = w.generate(AREA, 1000, seed=4).to_users()
        rates = [u.min_rate_bps for u in users]
        video = sum(1 for r in rates if r == 2.5e6)
        assert set(rates) == {2_000.0, 2.5e6}
        assert 120 <= video <= 280  # ~20% +/- sampling noise

    def test_rate_classes_validation(self):
        with pytest.raises(ValueError, match="sum"):
            FatTailedWorkload(rate_classes=((0.5, 1.0),))
        with pytest.raises(ValueError, match="non-negative"):
            FatTailedWorkload(rate_classes=((1.5, 1.0), (-0.5, 1.0)))

    def test_paper_scale_has_more_locations(self):
        paper = SCALES["paper"]
        bench = SCALES["bench"]
        assert (paper.area_length_m / paper.grid_side_m) ** 2 > (
            bench.area_length_m / bench.grid_side_m
        ) ** 2
