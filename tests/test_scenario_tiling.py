"""Tiled-solve equivalence and carve-invariant tests.

The tiling layer's two structural promises:

* a ``1x1`` grid is the *identity*: the carve returns the global problem
  object itself, and a tiled pipeline run is bit-identical to the plain
  run of the same spec (served count, placements, assignment);
* for any grid/overlap, demand nodes partition into tiles (each node in
  exactly one core), fleet slices are disjoint, and the final deployment
  comes from one global max flow — so no user or demand unit can ever be
  double-counted, which the fuzz pass checks on per-user *and*
  demand-cell variants over several grids and overlap widths.

``solve_tiled`` builds and carves the global problem once and hands each
carved tile straight to the pipeline; ``TestBuildOnce`` pins that against
the per-tile-spec path (every tile rebuilt from ``tile_index``).
"""

from __future__ import annotations

import time

import pytest

import repro.scenario.spec as spec_module
import repro.scenario.tiling as tiling
import repro.workload.aggregate as aggregate_module
from repro.core.assignment import final_assignment
from repro.network.deployment import CellDeployment, Deployment
from repro.network.validate import (
    validate_cell_deployment,
    validate_deployment,
)
from repro.scenario.batch import BatchRunner
from repro.scenario.pipeline import SolvePipeline
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.scenario.tiling import carve_tiles, solve_tiled
from repro.util.interrupt import (
    SolveInterrupted,
    clear_interrupt,
    request_interrupt,
)
from repro.workload.scenarios import paper_scenario

BASE = ScenarioSpec(
    name="tiling-test", scale="bench", num_users=400, num_uavs=8,
    seed=23, algorithm="approAlg", algorithm_params={"s": 1},
)


def _problem(num_users=300, num_uavs=6, seed=9):
    return paper_scenario(
        num_users=num_users, num_uavs=num_uavs, scale="bench", seed=seed
    )


class TestCarveInvariants:
    def test_1x1_is_identity(self):
        problem = _problem()
        tiles = carve_tiles(problem, (1, 1), overlap_m=250.0)
        assert len(tiles) == 1
        tile = tiles[0]
        assert tile.problem is problem
        assert tile.node_map == tuple(range(problem.num_users))
        assert tile.location_map == tuple(range(problem.num_locations))
        assert tile.fleet_map == tuple(range(problem.num_uavs))
        assert tile.demand_units == problem.num_users

    @pytest.mark.parametrize("grid", [(1, 2), (2, 1), (2, 2), (3, 2)])
    @pytest.mark.parametrize("overlap", [0.0, 400.0])
    def test_nodes_partition_exactly_once(self, grid, overlap):
        problem = _problem()
        tiles = carve_tiles(problem, grid, overlap_m=overlap)
        assert len(tiles) == grid[0] * grid[1]
        seen: list = []
        for tile in tiles:
            seen.extend(tile.node_map)
        assert sorted(seen) == list(range(problem.num_users))
        assert sum(t.demand_units for t in tiles) == problem.num_users

    @pytest.mark.parametrize("grid", [(2, 2), (3, 2)])
    def test_fleet_slices_disjoint_and_valid(self, grid):
        problem = _problem()
        tiles = carve_tiles(problem, grid, overlap_m=300.0)
        used: list = []
        for tile in tiles:
            used.extend(tile.fleet_map)
            if tile.problem is not None:
                assert len(tile.fleet_map) == tile.problem.num_uavs
                assert len(tile.fleet_map) <= len(tile.location_map)
        assert len(used) == len(set(used))
        assert set(used) <= set(range(problem.num_uavs))

    def test_overlap_grows_location_sets(self):
        problem = _problem()
        tight = carve_tiles(problem, (2, 2), overlap_m=0.0)
        wide = carve_tiles(problem, (2, 2), overlap_m=600.0)
        for t0, t1 in zip(tight, wide):
            assert set(t0.location_map) <= set(t1.location_map)

    def test_deterministic(self):
        problem = _problem()
        a = carve_tiles(problem, (2, 2), overlap_m=300.0)
        b = carve_tiles(problem, (2, 2), overlap_m=300.0)
        for ta, tb in zip(a, b):
            assert ta.node_map == tb.node_map
            assert ta.location_map == tb.location_map
            assert ta.fleet_map == tb.fleet_map
            assert ta.bounds == tb.bounds

    def test_rejects_bad_grid_and_overlap(self):
        problem = _problem(num_users=50, num_uavs=2)
        with pytest.raises(ValueError):
            carve_tiles(problem, (0, 2))
        with pytest.raises(ValueError):
            carve_tiles(problem, (2, 2), overlap_m=-1.0)


class TestTiledEquivalence:
    @pytest.mark.timeout_guard(300)
    def test_1x1_tiled_bit_identical_to_untiled(self):
        plain = SolvePipeline().run(BASE)
        tiled = SolvePipeline().run(
            BASE.with_overrides(name="tiling-test-1x1", tiles="1x1")
        )
        assert isinstance(tiled.deployment, Deployment)
        assert tiled.record.served == plain.record.served
        assert tiled.deployment.placements == plain.deployment.placements
        assert tiled.deployment.assignment == plain.deployment.assignment

    @pytest.mark.timeout_guard(300)
    def test_1x1_tiled_aggregated_bit_identical(self):
        """Identity carve composed with singleton aggregation still lands
        on the plain per-user result."""
        plain = SolvePipeline().run(BASE)
        tiled = SolvePipeline().run(BASE.with_overrides(
            name="tiling-test-1x1-cells", tiles="1x1", aggregation="cells",
        ))
        assert tiled.record.served == plain.record.served
        assert tiled.deployment.placements == plain.deployment.placements
        assert tiled.deployment.assignment == plain.deployment.assignment


class TestTiledFuzz:
    """No grid/overlap combination may ever double-count a user."""

    GRIDS = ["1x2", "2x1", "2x2", "3x2"]
    OVERLAPS = [0.0, 300.0, 800.0]

    @pytest.mark.timeout_guard(600)
    @pytest.mark.parametrize("tiles", GRIDS)
    @pytest.mark.parametrize("overlap", OVERLAPS)
    def test_per_user_tiled_never_double_counts(self, tiles, overlap):
        spec = BASE.with_overrides(
            name=f"tiling-fuzz-{tiles}-{int(overlap)}",
            tiles=tiles, tile_overlap_m=overlap, seed=31,
        )
        state = SolvePipeline().run(spec)
        problem = state.problem
        deployment = state.deployment
        assert isinstance(deployment, Deployment)
        # assignment is user -> uav: each user appears at most once by
        # construction; the validator re-checks capacity, coverage and
        # connectivity from first principles.
        assert deployment.served_count == len(deployment.assignment)
        assert deployment.served_count <= problem.num_users
        validate_deployment(problem.graph, problem.fleet, deployment)
        assert state.report["tiles"] == tiles
        assert state.report["tiles_solved"] >= 1

    @pytest.mark.timeout_guard(600)
    @pytest.mark.parametrize("tiles", ["2x2", "3x2"])
    @pytest.mark.parametrize("overlap", [0.0, 500.0])
    def test_cell_tiled_never_double_counts(self, tiles, overlap):
        spec = BASE.with_overrides(
            name=f"tiling-fuzz-cells-{tiles}-{int(overlap)}",
            tiles=tiles, tile_overlap_m=overlap,
            aggregation="cells", cell_size_m=250.0, seed=37,
        )
        state = SolvePipeline().run(spec)
        problem = state.problem
        deployment = state.deployment
        graph = problem.graph
        if isinstance(deployment, CellDeployment):
            validate_cell_deployment(graph, problem.fleet, deployment)
            for c, units in deployment.cell_totals().items():
                assert units <= int(graph.cell_demands[c])
        assert deployment.served_count <= graph.total_demand
        assert state.report["num_users"] == graph.total_demand


class TestSolveTiledContract:
    def test_rejects_spec_without_tiles(self):
        with pytest.raises(SpecError):
            solve_tiled(BASE)

    def test_rejects_tile_index_spec(self):
        spec = BASE.with_overrides(tiles="2x2", tile_index=1)
        with pytest.raises(SpecError):
            solve_tiled(spec)

    def test_report_carries_tiling_keys(self):
        state = SolvePipeline().run(
            BASE.with_overrides(name="tiling-report", tiles="2x2",
                                tile_overlap_m=300.0)
        )
        for key in ("tiles", "tiles_solved", "tiles_empty",
                    "relays_added", "degraded"):
            assert key in state.report
        assert state.report["tiles_solved"] + state.report["tiles_empty"] == 4

    def test_cells_require_capable_algorithm(self):
        spec = BASE.with_overrides(
            algorithm="MCS", algorithm_params={},
            aggregation="cells", cell_size_m=200.0,
        )
        with pytest.raises(SpecError, match="supports_cells"):
            SolvePipeline().run(spec)


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _same_problem(a, b):
    ga, gb = a.graph, b.graph
    assert type(ga) is type(gb)
    if hasattr(ga, "cells"):
        assert ga.cells == gb.cells
    else:
        assert ga.users == gb.users
    assert (ga._user_xy == gb._user_xy).all()
    assert ga.locations == gb.locations
    assert a.fleet == b.fleet


def _per_tile_spec_solve(spec):
    """The historical tiled path: every tile is its own ``tile_index`` spec,
    rebuilt from scratch by the batch runner, then stitched."""
    problem = spec.with_overrides(tiles=None, tile_overlap_m=0.0).build()
    tiles = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
    solvable = [tile for tile in tiles if tile.problem is not None]
    batch = BatchRunner().run([
        spec.with_overrides(
            name=f"{spec.name}/tile{tile.index}", tile_index=tile.index,
        )
        for tile in solvable
    ])
    placements = tiling._stitch_placements(solvable, list(batch.items))
    placements, _, _ = tiling._repair_connectivity(problem, placements)
    return final_assignment(problem.graph, problem.fleet, placements)


class TestBuildOnce:
    SPEC = BASE.with_overrides(
        name="tiling-once", tiles="2x2", tile_overlap_m=300.0,
        aggregation="cells", cell_size_m=250.0,
    )

    def test_builds_aggregates_and_carves_once(self, monkeypatch):
        calls: dict = {}
        _counting(monkeypatch, spec_module, "build_scenario", calls)
        _counting(monkeypatch, aggregate_module, "aggregate_problem", calls)
        _counting(monkeypatch, tiling, "carve_tiles", calls)
        state = SolvePipeline().run(self.SPEC)
        assert state.report["tiles_solved"] >= 2
        assert calls == {
            "build_scenario": 1, "aggregate_problem": 1, "carve_tiles": 1,
        }

    @pytest.mark.parametrize("tiles", ["2x2", "3x2"])
    @pytest.mark.parametrize("aggregation", ["users", "cells"])
    @pytest.mark.parametrize("overlap", [0.0, 400.0])
    def test_carved_tile_equals_tile_index_build(
        self, tiles, aggregation, overlap
    ):
        spec = BASE.with_overrides(
            tiles=tiles, tile_overlap_m=overlap, aggregation=aggregation,
            cell_size_m=250.0 if aggregation == "cells" else None,
        )
        problem = spec.with_overrides(tiles=None, tile_overlap_m=0.0).build()
        nx, ny = spec.tile_grid()
        carved = carve_tiles(problem, (nx, ny), overlap)
        assert len(carved) == nx * ny
        for tile in carved:
            rebuilt_spec = spec.with_overrides(tile_index=tile.index)
            if tile.problem is None:
                with pytest.raises(SpecError, match="empty"):
                    rebuilt_spec.build()
                continue
            _same_problem(tile.problem, rebuilt_spec.build())

    @pytest.mark.timeout_guard(300)
    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("aggregation", ["users", "cells"])
    def test_stitched_deployment_matches_per_tile_spec_path(
        self, seed, aggregation
    ):
        spec = self.SPEC.with_overrides(
            seed=seed, aggregation=aggregation,
            cell_size_m=250.0 if aggregation == "cells" else None,
        )
        state = SolvePipeline().run(spec)
        reference = _per_tile_spec_solve(spec)
        assert state.deployment.placements == reference.placements
        assert state.deployment.served_count == reference.served_count
        if isinstance(reference, CellDeployment):
            assert state.deployment.flows == reference.flows
        else:
            assert state.deployment.assignment == reference.assignment

    def test_interrupt_between_tiles(self, monkeypatch):
        solved = []
        original = SolvePipeline.run

        def run_then_interrupt(pipeline, spec, *args, **kwargs):
            state = original(pipeline, spec, *args, **kwargs)
            if spec.tile_index is not None:
                solved.append(spec.tile_index)
                request_interrupt()
            return state

        monkeypatch.setattr(SolvePipeline, "run", run_then_interrupt)
        try:
            with pytest.raises(SolveInterrupted) as excinfo:
                SolvePipeline().run(self.SPEC)
        finally:
            clear_interrupt()
        assert len(solved) == 1
        assert excinfo.value.partial["tiles_done"] == 1

    def test_runtime_excludes_the_global_build(self, monkeypatch):
        delay_s = 0.3
        build = spec_module.build_scenario

        def slow_build(*args, **kwargs):
            time.sleep(delay_s)
            return build(*args, **kwargs)

        monkeypatch.setattr(spec_module, "build_scenario", slow_build)
        start = time.perf_counter()
        state = SolvePipeline().run(self.SPEC)
        wall_s = time.perf_counter() - start
        assert state.record.runtime_s > 0.0
        assert wall_s - state.record.runtime_s >= delay_s
