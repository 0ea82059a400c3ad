"""Tests for :mod:`repro.dynamics.spec`."""

from dataclasses import replace

import pytest

from repro.dynamics.spec import (
    DYNAMIC_PRESETS,
    DynamicSpec,
    dynamic_preset_names,
    get_dynamic_preset,
)
from repro.scenario.spec import ScenarioSpec, SpecError


def small_spec(**overrides) -> DynamicSpec:
    base = dict(
        name="t", scale="small", num_users=20, num_uavs=3, seed=1,
        duration_s=100.0, epoch_s=25.0,
    )
    base.update(overrides)
    return DynamicSpec(**base)


class TestValidation:
    def test_defaults_valid(self):
        spec = small_spec()
        assert spec.duration_s == 100.0
        assert spec.resolve_policy == "periodic"
        assert spec.warm_start is True

    @pytest.mark.parametrize("field,value", [
        ("duration_s", 0.0),
        ("duration_s", -5.0),
        ("epoch_s", 0.0),
        ("mean_dwell_s", 0.0),
        ("hotspot_sigma_m", 0.0),
        ("mobility_step_s", 0.0),
        ("arrival_rate_per_s", -0.1),
        ("hotspot_drift_mps", -1.0),
        ("mobility_sigma_m", -1.0),
        ("relocation_speed_mps", 0.0),
        ("num_hotspots", 0),
        ("num_crashes", -1),
        ("num_links", -1),
        ("drift_threshold", 0.0),
        ("drift_threshold", 1.5),
        ("resolve_policy", "sometimes"),
        ("warm_start", "yes"),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            small_spec(**{field: value})

    def test_more_crashes_than_uavs_rejected(self):
        with pytest.raises(SpecError, match="num_crashes 4 exceeds the "
                           "fleet of 3 UAVs"):
            small_spec(num_crashes=4)
        assert small_spec(num_crashes=3).num_crashes == 3

    def test_inherits_static_validation(self):
        with pytest.raises(ValueError):
            small_spec(num_users=0)

    def test_zeroed_churn_allowed(self):
        spec = small_spec(arrival_rate_per_s=0.0)
        assert spec.arrival_rate_per_s == 0.0

    @pytest.mark.parametrize("overrides,field", [
        (dict(aggregation="cells", cell_size_m=150.0), "aggregation"),
        (dict(aggregation="cells"), "aggregation"),
        (dict(tiles="2x2"), "tiles"),
        (dict(tiles="2x2", tile_overlap_m=300.0), "tiles"),
        (dict(aggregation="cells", tiles="2x2", tile_index=1),
         "aggregation"),
    ])
    def test_rejects_what_a_mission_cannot_run(self, overrides, field):
        """Demand cells crash the mission world, and a tile grid without
        a tile_index was silently ignored: both are rejected, naming the
        field, built directly and read from JSON."""
        with pytest.raises(SpecError, match=field):
            small_spec(**overrides)
        data = small_spec().to_dict()
        data.update(overrides)
        with pytest.raises(SpecError, match=field):
            DynamicSpec.from_dict(data)

    def test_one_tile_mission_allowed(self):
        spec = small_spec(tiles="2x2", tile_index=3)
        assert DynamicSpec.from_dict(spec.to_dict()) == spec


class TestRoundTrip:
    def test_json_round_trip(self):
        spec = small_spec(
            resolve_policy="drift", drift_threshold=0.2, num_crashes=1,
            relocation_speed_mps=12.0,
        )
        data = spec.to_dict()
        assert data["kind"] == "dynamic-spec"
        assert DynamicSpec.from_dict(data) == spec

    def test_rejects_static_kind(self):
        data = small_spec().to_dict()
        data["kind"] = "scenario-spec"
        with pytest.raises(ValueError, match="dynamic-spec"):
            DynamicSpec.from_dict(data)

    def test_rejects_unknown_field(self):
        data = small_spec().to_dict()
        data["wormhole"] = True
        with pytest.raises(ValueError, match="wormhole"):
            DynamicSpec.from_dict(data)

    def test_rejects_future_format(self):
        data = small_spec().to_dict()
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            DynamicSpec.from_dict(data)


class TestPresets:
    def test_names_sorted_and_complete(self):
        names = dynamic_preset_names()
        assert names == sorted(names)
        assert {"dynamic-small", "dynamic-surge", "dynamic-headline",
                "mission-small"} <= set(names)

    def test_presets_validate(self):
        for name, spec in DYNAMIC_PRESETS.items():
            assert spec.name == name
            # Re-running validation on a round-trip must not raise.
            assert DynamicSpec.from_dict(spec.to_dict()) == spec

    def test_get_unknown_lists_known(self):
        with pytest.raises(KeyError, match="dynamic-small"):
            get_dynamic_preset("nope")

    def test_static_half_matches_parent(self):
        """A dynamic spec builds the same initial scenario a static spec
        with the same knobs would."""
        dyn = get_dynamic_preset("dynamic-small")
        static = ScenarioSpec(
            name=dyn.name, scale=dyn.scale, num_users=dyn.num_users,
            num_uavs=dyn.num_uavs, seed=dyn.seed, algorithm=dyn.algorithm,
            algorithm_params=dyn.algorithm_params,
        )
        assert dyn.to_config() == static.to_config()

    def test_seed_override_keeps_time_knobs(self):
        dyn = replace(get_dynamic_preset("dynamic-surge"), seed=99)
        assert dyn.seed == 99
        assert dyn.resolve_policy == "drift"


class TestLayering:
    def test_lower_layers_never_import_dynamics(self):
        """docs/ARCHITECTURE.md rule 3: `repro.dynamics` imports the
        layers it orchestrates, never the reverse."""
        import ast
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        lower = ("scenario", "sim", "simnet", "ops", "core", "network",
                 "workload", "baselines", "obs", "util")
        offenders = []
        for layer in lower:
            for path in (src / layer).rglob("*.py"):
                tree = ast.parse(path.read_text())
                for node in ast.walk(tree):
                    if isinstance(node, ast.Import):
                        names = [a.name for a in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    else:
                        continue
                    if any(n.startswith("repro.dynamics") for n in names):
                        offenders.append(str(path))
        assert offenders == []
