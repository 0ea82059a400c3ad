"""Tests for the declarative ScenarioSpec (schema, JSON, presets)."""

import dataclasses
import time

import pytest

from repro.dynamics.spec import DynamicSpec
from repro.scenario.spec import (
    MAX_LOCATIONS,
    PRESETS,
    ScenarioSpec,
    SpecError,
    get_preset,
    preset_names,
)
from repro.workload.scenarios import SCALES, paper_scenario


class TestSchemaValidation:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec()
        assert spec.scale == "bench"
        assert spec.algorithm == "approAlg"
        assert spec.validate is True

    def test_unknown_scale_rejected(self):
        with pytest.raises(SpecError, match="unknown scale"):
            ScenarioSpec(scale="galactic")

    def test_unknown_environment_rejected(self):
        with pytest.raises(SpecError, match="unknown environment"):
            ScenarioSpec(environment="underwater")

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            ScenarioSpec(workload="bursty")

    def test_workload_params_require_workload(self):
        with pytest.raises(SpecError, match="workload_params"):
            ScenarioSpec(workload_params={"num_hotspots": 3})

    @pytest.mark.parametrize("field,value", [
        ("num_users", 0),
        ("num_users", -5),
        ("num_users", 2.5),
        ("num_users", True),
        ("num_uavs", "eight"),
        ("grid_side_m", -100.0),
        ("altitude_m", 0),
        ("workers", 0),
        ("seed", "seven"),
        ("seed", True),
        ("validate", 1),
        ("algorithm_params", ["s", 2]),
        ("name", ""),
    ])
    def test_invalid_field_values_rejected(self, field, value):
        with pytest.raises(SpecError):
            ScenarioSpec(**{field: value})

    def test_capacity_bounds_ordered(self):
        with pytest.raises(SpecError, match="capacity_min"):
            ScenarioSpec(capacity_min=300, capacity_max=100)
        ScenarioSpec(capacity_min=100, capacity_max=300)  # fine

    def test_altitude_layers_normalised_to_tuple(self):
        spec = ScenarioSpec(altitude_layers_m=[200.0, 300.0])
        assert spec.altitude_layers_m == (200.0, 300.0)

    def test_with_overrides_revalidates(self):
        spec = ScenarioSpec()
        with pytest.raises(SpecError):
            spec.with_overrides(num_users=-1)
        assert spec.with_overrides(num_users=50).num_users == 50

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScenarioSpec().seed = 99

    def test_more_uavs_than_locations_rejected(self):
        # demo-small's area holds 9 candidate locations; the error is
        # still a ValueError for callers that catch that.
        spec = get_preset("demo-small")
        with pytest.raises(SpecError, match="cannot deploy 500 UAVs on "
                           "only 9 candidate locations"):
            spec.with_overrides(num_uavs=500).build()
        with pytest.raises(ValueError):
            spec.with_overrides(num_uavs=10).build()
        assert spec.with_overrides(num_uavs=9).build().num_uavs == 9
        two_layers = spec.with_overrides(altitude_layers_m=(200.0, 300.0),
                                         num_uavs=18)
        assert two_layers.build().num_uavs == 18

    def test_grid_side_must_divide_the_area(self):
        with pytest.raises(SpecError, match="grid_side_m 70 does not divide "
                           "the 3000 x 3000 m area of scale 'bench'"):
            ScenarioSpec(scale="bench", grid_side_m=70.0).build()
        with pytest.raises(SpecError, match="grid_side_m"):
            get_preset("demo-small").with_overrides(grid_side_m=400.0).build()
        assert ScenarioSpec(scale="bench", grid_side_m=600.0).build()

    def test_tile_overlap_wider_than_a_tile_rejected(self):
        # demo-small's 1500 m area cut 2x2 gives 750 m tiles.
        spec = get_preset("demo-small").with_overrides(tiles="2x2")
        with pytest.raises(SpecError, match="wider than a 750 m tile"):
            spec.with_overrides(tile_overlap_m=1e6)
        with pytest.raises(SpecError, match="tile_overlap_m"):
            spec.with_overrides(tile_overlap_m=750.5)
        assert spec.with_overrides(tile_overlap_m=750.0).tile_overlap_m == 750


class TestJsonRoundTrip:
    def test_default_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_fully_loaded_round_trip(self):
        spec = ScenarioSpec(
            name="kitchen-sink",
            scale="small",
            num_users=250,
            num_uavs=5,
            grid_side_m=900.0,
            altitude_m=250.0,
            environment="dense-urban",
            workload="fat-tailed",
            workload_params={"num_hotspots": 4},
            capacity_min=50,
            capacity_max=280,
            seed=123,
            algorithm="MCS",
            algorithm_params={},
            workers=2,
            validate=False,
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.workload_params == {"num_hotspots": 4}

    def test_altitude_layers_round_trip(self):
        spec = ScenarioSpec(altitude_layers_m=(200.0, 350.0))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.altitude_layers_m == (200.0, 350.0)

    def test_header_present(self):
        data = ScenarioSpec().to_dict()
        assert data["kind"] == "scenario-spec"
        assert data["format"] == 1

    def test_unknown_field_rejected(self):
        data = ScenarioSpec().to_dict()
        data["turbo"] = True
        with pytest.raises(SpecError, match="unknown spec field.*turbo"):
            ScenarioSpec.from_dict(data)

    def test_wrong_kind_rejected(self):
        data = ScenarioSpec().to_dict()
        data["kind"] = "deployment"
        with pytest.raises(SpecError, match="kind"):
            ScenarioSpec.from_dict(data)

    def test_wrong_format_rejected(self):
        data = ScenarioSpec().to_dict()
        data["format"] = 99
        with pytest.raises(SpecError, match="format"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("cls", [ScenarioSpec, DynamicSpec])
    @pytest.mark.parametrize("value", [False, True, "yes"])
    def test_removed_bound_prune_on_load(self, cls, value):
        # Format-1 documents saved before the option was removed carry
        # "bound_prune": false, which loads (and is never written back);
        # any other value is rejected.
        spec = cls(name="saved", seed=3)
        data = spec.to_dict()
        assert "bound_prune" not in data
        data["bound_prune"] = value
        if value is False:
            assert cls.from_dict(data) == spec
        else:
            with pytest.raises(SpecError, match="removed.*identical"):
                cls.from_dict(data)

    def test_invalid_value_rejected_on_load(self):
        data = ScenarioSpec().to_dict()
        data["num_users"] = -10
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(data)

    def test_malformed_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            ScenarioSpec.from_json("{nope")

    def test_save_load_file(self, tmp_path):
        spec = ScenarioSpec(name="disk", seed=5)
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec


class TestDerivedViews:
    def test_to_config_applies_only_explicit_overrides(self):
        spec = ScenarioSpec(scale="small", num_users=123)
        config = spec.to_config()
        assert config.num_users == 123
        assert config.num_uavs == SCALES["small"].num_uavs

    def test_build_matches_paper_scenario(self):
        """The spec's scenario stream is bit-identical to the historical
        paper_scenario path for the same knobs."""
        spec = ScenarioSpec(scale="small", num_users=200, num_uavs=5, seed=11)
        ours = spec.build()
        legacy = paper_scenario(
            num_users=200, num_uavs=5, scale="small", seed=11
        )
        assert [u.capacity for u in ours.fleet] == [
            u.capacity for u in legacy.fleet
        ]
        assert [
            (u.position.x, u.position.y) for u in ours.graph.users
        ] == [
            (u.position.x, u.position.y) for u in legacy.graph.users
        ]

    def test_workload_resolved_from_name(self):
        from repro.workload.uniform import UniformWorkload

        spec = ScenarioSpec(workload="uniform")
        assert isinstance(spec.to_config().workload, UniformWorkload)

    def test_derived_seed_is_stable_and_labelled(self):
        spec = ScenarioSpec(seed=7)
        assert spec.derived_seed("faults") == spec.derived_seed("faults")
        assert spec.derived_seed("faults") != spec.derived_seed("relocation")
        assert spec.derived_seed("faults") != 7

    def test_scenario_key_ignores_algorithm(self):
        a = ScenarioSpec(seed=3, algorithm="approAlg", workers=2)
        b = ScenarioSpec(seed=3, algorithm="MCS")
        assert a.scenario_key() == b.scenario_key()

    def test_scenario_key_distinguishes_scenarios(self):
        assert (
            ScenarioSpec(seed=3).scenario_key()
            != ScenarioSpec(seed=4).scenario_key()
        )
        assert (
            ScenarioSpec(num_users=100).scenario_key()
            != ScenarioSpec(num_users=200).scenario_key()
        )


class TestPresets:
    def test_all_presets_valid_and_named(self):
        for name in preset_names():
            assert get_preset(name).name == name

    def test_preset_round_trips(self):
        for name in preset_names():
            spec = get_preset(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_unknown_preset_lists_known(self):
        with pytest.raises(KeyError, match="demo-small"):
            get_preset("nope")

    def test_demo_small_builds(self):
        problem = get_preset("demo-small").build()
        assert problem.num_users == 300
        assert problem.num_uavs == 6

    def test_presets_within_the_location_cap(self):
        for name in preset_names():
            assert get_preset(name).to_config().num_locations <= MAX_LOCATIONS

    def test_presets_cover_all_scales(self):
        assert {p.scale for p in PRESETS.values()} == set(SCALES)


class TestAirspace:
    """Hovering altitudes outside the scenario airspace ``(0, 500] m``
    fail validation naming the field, before anything is built."""

    @pytest.mark.parametrize("value", [1e6, 500.5, float("inf")])
    def test_altitude_above_the_ceiling_rejected(self, value):
        with pytest.raises(SpecError, match="altitude_m .* ceiling"):
            ScenarioSpec(altitude_m=value)

    def test_layer_above_the_ceiling_rejected(self):
        with pytest.raises(SpecError, match="altitude_layers_m entry"):
            ScenarioSpec(altitude_layers_m=(200.0, 1e6))

    def test_dynamic_and_json_specs_rejected(self):
        with pytest.raises(SpecError, match="altitude_m"):
            DynamicSpec(altitude_m=1e6)
        text = ScenarioSpec(scale="small").to_json().replace(
            '"altitude_m": null', '"altitude_m": 1000000.0'
        )
        assert "1000000.0" in text
        with pytest.raises(SpecError, match="altitude_m"):
            ScenarioSpec.from_json(text)

    def test_altitude_at_the_ceiling_builds(self):
        problem = ScenarioSpec(scale="small", altitude_m=500.0).build()
        assert {p.z for p in problem.graph.locations} == {500.0}


class TestLocationCap:
    """A grid that asks for more than ``MAX_LOCATIONS`` candidate
    locations fails fast, naming the fields, instead of building for
    minutes."""

    def test_one_metre_grid_rejected_quickly(self):
        spec = ScenarioSpec(name="x", scale="small", grid_side_m=1.0)
        start = time.perf_counter()
        with pytest.raises(SpecError, match="grid_side_m .* 2250000"):
            spec.build()
        assert time.perf_counter() - start < 1.0

    def test_layers_count_towards_the_cap(self):
        # 60 m over the 3 km bench zone: 2,500 locations per layer.
        spec = ScenarioSpec(scale="bench", grid_side_m=60.0)
        assert spec.to_config().num_locations == MAX_LOCATIONS
        with pytest.raises(SpecError, match="altitude_layers_m"):
            spec.with_overrides(altitude_layers_m=(200.0, 300.0)).build()
