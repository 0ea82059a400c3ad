"""Area tiling: shard a huge scenario into a grid of tiles, solve each
tile independently, stitch the pieces into one connected deployment.

The tiled driver is the second half of the million-user scaling layer
(:mod:`repro.workload.aggregate` is the first): a ``ScenarioSpec`` with a
``tiles="NxM"`` grid routes here from the pipeline, the global (possibly
demand-cell) problem is built and aggregated **once**, carved into
per-tile sub-problems by one :func:`carve_tiles` call, and each carved
tile problem goes straight into the unmodified
:class:`~repro.scenario.pipeline.SolvePipeline` — no tile is rebuilt from
its spec.  (:meth:`ScenarioSpec.build` with ``tile_index`` still
reproduces the identical carve for callers that want a single tile.)

Carving is a pure function of ``(problem, grid, overlap)``:

* demand nodes (users, or cells by centroid) partition into tiles by
  half-open core bounds — every node lands in **exactly one** tile, which
  is what makes double-serving structurally impossible;
* candidate locations replicate into every tile whose core bounds padded
  by ``overlap_m`` contain them, so tiles can place UAVs near their
  boundary for users just inside it;
* the fleet is apportioned to tiles proportionally to demand
  (highest-averages with a one-UAV floor per non-empty tile, capped by
  each tile's location count) and dealt round-robin in capacity order so
  every tile receives a comparable capacity mix;
* a ``1x1`` grid is the identity carve — the tile *is* the global
  problem, making tiled-vs-untiled bit-identity testable.

Stitching maps each tile's placements back to global indices (fleet
slices are disjoint; location clashes from overlapping tiles resolve
first-tile-wins), repairs connectivity across tile seams with unused
UAVs on Steiner relay locations (degrading to the best component when
the reserves run out), and finishes with one **global** exact max-flow
assignment — users/cells are served by that single flow, never by
summing per-tile counts, so the result cannot double-count a user.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.assignment import final_assignment
from repro.core.problem import ProblemInstance
from repro.scenario.spec import ScenarioSpec, SpecError
from repro.util.interrupt import SolveInterrupted, interrupt_requested


@dataclass(frozen=True)
class TileSlice:
    """One carved tile: index maps back to the global problem.

    ``problem`` is ``None`` for tiles that cannot be solved (no demand,
    no candidate locations, or no apportioned UAVs) — their demand nodes
    simply stay unserved by the tile pass (the global final assignment
    may still pick them up from boundary placements).
    """

    index: int
    bounds: tuple                  # (x0, x1, y0, y1) core bounds
    problem: "ProblemInstance | None"
    demand_units: int              # users (or cell member units) in core
    node_map: tuple                # tile-local user/cell -> global index
    location_map: tuple            # tile-local location -> global index
    fleet_map: tuple               # tile-local UAV -> global fleet index


def _apportion_fleet(
    problem: ProblemInstance, demand: "np.ndarray", n_locs: "np.ndarray"
) -> dict:
    """Deal the fleet to tiles: proportional to demand, one-UAV floor,
    capped by each tile's location count, strongest UAVs round-robin.

    Returns ``{tile: sorted list of global fleet indices}`` for tiles that
    received at least one UAV.  Deterministic: highest-averages
    (D'Hondt) quota with ties to the lower tile index, then the global
    capacity order dealt cyclically over the awarded tiles.
    """
    num_tiles = len(demand)
    eligible = [
        t for t in range(num_tiles) if demand[t] > 0 and n_locs[t] > 0
    ]
    if not eligible:
        return {}
    counts = {t: 0 for t in eligible}
    budget = len(problem.fleet)
    # One-UAV floor, richest tiles first, while the fleet lasts.
    for t in sorted(eligible, key=lambda t: (-int(demand[t]), t)):
        if budget == 0:
            break
        if counts[t] < int(n_locs[t]):
            counts[t] += 1
            budget -= 1
    # Hold back a relay reserve for the stitch pass when the fleet
    # allows it: tiles solve independently and tend to land their UAVs
    # well inside their bounds, so bridging the seams afterwards needs
    # UAVs that no tile consumed (one per tile is a decent relay budget).
    if len(eligible) > 1:
        budget -= min(len(eligible), budget)
    # Highest-averages proportional fill for the rest.
    while budget > 0:
        open_tiles = [t for t in eligible if counts[t] < int(n_locs[t])]
        if not open_tiles:
            break
        t = max(
            open_tiles,
            key=lambda t: (int(demand[t]) / (counts[t] + 1), -t),
        )
        counts[t] += 1
        budget -= 1
    # Deal physical UAVs: strongest first, cycling the awarded tiles in
    # descending-demand order so each gets a comparable capacity mix.
    cycle = [t for t in sorted(eligible, key=lambda t: (-int(demand[t]), t))
             if counts[t] > 0]
    need = dict(counts)
    assigned: dict = {t: [] for t in cycle}
    pos = 0
    for k in problem.capacity_order():
        placed = False
        for _ in range(len(cycle)):
            t = cycle[pos % len(cycle)]
            pos += 1
            if need[t] > 0:
                assigned[t].append(k)
                need[t] -= 1
                placed = True
                break
        if not placed:
            break
    return {t: sorted(ks) for t, ks in assigned.items() if ks}


def carve_tiles(
    problem: ProblemInstance, grid: tuple, overlap_m: float = 0.0
) -> list:
    """Carve ``problem`` into an ``nx * ny`` list of :class:`TileSlice`.

    Pure and deterministic in its arguments — :meth:`ScenarioSpec.build`
    (for one ``tile_index``) and :func:`solve_tiled` (for all of them)
    get the same tiles.  A ``(1, 1)`` grid returns the original problem
    object itself (identity carve).
    """
    nx, ny = int(grid[0]), int(grid[1])
    if nx < 1 or ny < 1:
        raise ValueError(f"tile grid must be at least 1x1, got {grid!r}")
    if overlap_m < 0:
        raise ValueError(f"overlap_m must be >= 0, got {overlap_m}")
    graph = problem.graph
    node_xy = graph._user_xy
    demands = getattr(graph, "cell_demands", None)
    node_units = (
        np.ones(graph.num_users, dtype=np.int64) if demands is None
        else demands
    )

    loc_xy = np.array(
        [[p.x, p.y] for p in graph.locations], dtype=float
    ).reshape(graph.num_locations, 2)
    all_x = np.concatenate([node_xy[:, 0], loc_xy[:, 0]])
    all_y = np.concatenate([node_xy[:, 1], loc_xy[:, 1]])
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())

    if nx == 1 and ny == 1:
        return [TileSlice(
            index=0, bounds=(x_min, x_max, y_min, y_max), problem=problem,
            demand_units=int(node_units.sum()),
            node_map=tuple(range(graph.num_users)),
            location_map=tuple(range(graph.num_locations)),
            fleet_map=tuple(range(problem.num_uavs)),
        )]

    def _bins(values: "np.ndarray", lo: float, hi: float, n: int):
        width = (hi - lo) / n
        if width <= 0:
            return np.zeros(len(values), dtype=np.int64)
        return np.clip(
            np.floor((values - lo) / width).astype(np.int64), 0, n - 1
        )

    node_tile = _bins(node_xy[:, 1], y_min, y_max, ny) * nx + _bins(
        node_xy[:, 0], x_min, x_max, nx
    )

    num_tiles = nx * ny
    demand = np.zeros(num_tiles, dtype=np.int64)
    np.add.at(demand, node_tile, node_units)

    x_width = (x_max - x_min) / nx
    y_width = (y_max - y_min) / ny
    bounds = []
    tile_locs = []
    for t in range(num_tiles):
        ix, iy = t % nx, t // nx
        x0, x1 = x_min + ix * x_width, x_min + (ix + 1) * x_width
        y0, y1 = y_min + iy * y_width, y_min + (iy + 1) * y_width
        bounds.append((x0, x1, y0, y1))
        inside = (
            (loc_xy[:, 0] >= x0 - overlap_m)
            & (loc_xy[:, 0] <= x1 + overlap_m)
            & (loc_xy[:, 1] >= y0 - overlap_m)
            & (loc_xy[:, 1] <= y1 + overlap_m)
        )
        tile_locs.append([int(j) for j in np.flatnonzero(inside)])

    n_locs = np.array([len(locs) for locs in tile_locs], dtype=np.int64)
    fleet_by_tile = _apportion_fleet(problem, demand, n_locs)

    tiles = []
    for t in range(num_tiles):
        node_map = np.flatnonzero(node_tile == t).tolist()
        fleet_map = fleet_by_tile.get(t, [])
        if not node_map or not tile_locs[t] or not fleet_map:
            tiles.append(TileSlice(
                index=t, bounds=bounds[t], problem=None,
                demand_units=int(demand[t]), node_map=tuple(node_map),
                location_map=tuple(tile_locs[t]), fleet_map=tuple(fleet_map),
            ))
            continue
        sub_graph = graph.carve(node_map, tile_locs[t])
        sub_fleet = [problem.fleet[k] for k in fleet_map]
        tiles.append(TileSlice(
            index=t, bounds=bounds[t],
            problem=ProblemInstance(graph=sub_graph, fleet=sub_fleet),
            demand_units=int(demand[t]), node_map=tuple(node_map),
            location_map=tuple(tile_locs[t]), fleet_map=tuple(fleet_map),
        ))
    return tiles


def _stitch_placements(tiles: list, states: list) -> dict:
    """Union per-tile placements back into global indices.

    Fleet slices are disjoint by construction, so UAV keys never clash;
    overlapping tiles can pick the same *location*, which resolves
    first-tile-wins (the loser stays grounded and feeds the relay pool).
    """
    placements: dict = {}
    used_locations: set = set()
    for tile, state in zip(tiles, states):
        if state.deployment is None:
            continue
        for k_local in sorted(state.deployment.placements):
            loc = tile.location_map[state.deployment.placements[k_local]]
            if loc in used_locations:
                obs.counter_inc("tiling.location_clashes")
                continue
            used_locations.add(loc)
            placements[tile.fleet_map[k_local]] = loc
    return placements


def _best_component(fleet: list, components: list) -> list:
    """Most UAVs, then total capacity, then lowest fleet index."""
    return max(
        components,
        key=lambda comp: (
            len(comp), sum(fleet[k].capacity for k in comp), -min(comp),
        ),
    )


def _bridge_path(adjacency, occupied: set, hub: set, targets: set):
    """Shortest relay path from the hub component to any other component.

    Multi-source BFS over the location graph starting from the hub's
    occupied locations, expanding through *free* locations only, stopping
    at the first location some other component occupies.  Returns the
    path's interior (the free locations to staff with relays, hub side
    first), or ``None`` when no other component is reachable.
    """
    from collections import deque

    parent: dict = {loc: None for loc in sorted(hub)}
    queue = deque(sorted(hub))
    while queue:
        v = queue.popleft()
        for w in sorted(adjacency.neighbours(v)):
            if w in parent:
                continue
            parent[w] = v
            if w in targets:
                interior = []
                node = parent[w]
                while node is not None and node not in hub:
                    interior.append(node)
                    node = parent[node]
                return list(reversed(interior))
            if w not in occupied:
                queue.append(w)
    return None


def _repair_connectivity(problem: ProblemInstance, placements: dict) -> tuple:
    """Bridge stitched components with unused UAVs on relay locations.

    Greedy incremental: starting from the best component (most UAVs,
    then total capacity, then lowest fleet index), repeatedly staff the
    shortest free-location path to the nearest other component with the
    strongest unused UAVs, until everything is one component or the
    reserves run out.  Components still unreachable at that point are
    dropped (degraded stitch, counted in ``tiling.degraded_stitches``).
    Returns ``(placements, relays_added, degraded)``.
    """
    # Function-level import: repro.ops sits above the scenario layer.
    from repro.ops.recovery import uav_components

    components = uav_components(problem, placements)
    if len(components) <= 1:
        return placements, 0, False
    adjacency = problem.graph.location_graph
    fleet = problem.fleet
    placements = dict(placements)
    unused = [k for k in problem.capacity_order() if k not in placements]
    relays_added = 0
    while True:
        components = uav_components(problem, placements)
        if len(components) <= 1:
            break
        hub_uavs = set(_best_component(fleet, components))
        hub = {placements[k] for k in hub_uavs}
        occupied = set(placements.values())
        interior = _bridge_path(adjacency, occupied, hub, occupied - hub)
        if not interior or len(interior) > len(unused):
            # None: unreachable; []: cannot happen when the components are
            # truly disjoint, but guard against looping on it regardless.
            break
        for loc in interior:
            placements[unused.pop(0)] = loc
        relays_added += len(interior)
    if relays_added:
        obs.counter_inc("tiling.relays_added", relays_added)
    components = uav_components(problem, placements)
    if len(components) <= 1:
        return placements, relays_added, False
    keep = set(_best_component(fleet, components))
    obs.counter_inc("tiling.degraded_stitches")
    return (
        {k: loc for k, loc in placements.items() if k in keep},
        relays_added,
        True,
    )


def solve_tiled(
    spec: ScenarioSpec,
    registry: "object | None" = None,
    strict: bool = True,
):
    """Solve a ``tiles="NxM"`` spec: build once, carve, solve, stitch, assign.

    Returns a :class:`~repro.scenario.pipeline.PipelineState` whose
    ``problem`` is the **global** problem and whose ``deployment`` is the
    stitched, globally re-assigned solution, so callers (CLI, batch
    drivers, tests) treat a tiled run exactly like a plain one.  The
    record's ``runtime_s`` covers carve, tile solves and stitch, not the
    global build (plain runs likewise report only their solve).  The
    report gains ``tiles`` / ``tiles_solved`` / ``tiles_empty`` /
    ``relays_added`` / ``degraded`` keys.
    """
    from repro.scenario.pipeline import (
        PipelineState,
        SolvePipeline,
        report_stage,
        validate_stage,
    )
    from repro.scenario.registry import DEFAULT_REGISTRY

    if spec.tiles is None or spec.tile_index is not None:
        raise SpecError(
            "solve_tiled wants a spec with a tiles grid and no tile_index"
        )
    registry = registry if registry is not None else DEFAULT_REGISTRY
    entry = registry.get(spec.algorithm)

    with obs.span("tiling.build", scenario=spec.name):
        problem = spec.with_overrides(tiles=None, tile_overlap_m=0.0).build()
    start = time.perf_counter()
    tiles = carve_tiles(problem, spec.tile_grid(), spec.tile_overlap_m)
    solvable = [tile for tile in tiles if tile.problem is not None]
    obs.counter_inc("tiling.tiles", len(tiles))
    obs.counter_inc("tiling.tiles_empty", len(tiles) - len(solvable))

    pipeline = SolvePipeline(registry=registry, strict=strict)
    states = []
    with obs.span("tiling.solve", scenario=spec.name, tiles=len(solvable)):
        for tile in solvable:
            if interrupt_requested():
                raise SolveInterrupted(
                    f"tiled solve interrupted after {len(states)} of "
                    f"{len(solvable)} tile(s)",
                    partial={"tiles_done": len(states),
                             "elapsed_s": time.perf_counter() - start},
                )
            tile_spec = spec.with_overrides(
                name=f"{spec.name}/tile{tile.index}", tile_index=tile.index,
            )
            states.append(pipeline.run(tile_spec, problem=tile.problem))

    with obs.span("tiling.stitch", scenario=spec.name):
        placements = _stitch_placements(solvable, states)
        placements, relays_added, degraded = _repair_connectivity(
            problem, placements
        )
        deployment = final_assignment(
            problem.graph, problem.fleet, placements
        )

    state = PipelineState(
        entry=entry, registry=registry, spec=spec, strict=strict,
        validate=spec.validate, params=dict(spec.algorithm_params),
        problem=problem, deployment=deployment, status="ok",
    )
    state.elapsed_s = time.perf_counter() - start
    state = validate_stage(state)
    state = report_stage(state)
    if state.report is not None:
        state.report.update({
            "tiles": spec.tiles,
            "tiles_solved": len(solvable),
            "tiles_empty": len(tiles) - len(solvable),
            "relays_added": relays_added,
            "degraded": degraded,
        })
    return state
