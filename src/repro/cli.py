"""Command-line interface.

    repro experiments {fig4,fig5,fig6a,fig6b} [--scale bench] [--reps 1] ...
    repro demo            # tiny end-to-end run
    repro run [--scenario SPEC.json] ...
    repro batch SPEC.json [...] [--workers N]
    repro scenario list|show [PRESET]

``repro experiments FIGURE`` regenerates the corresponding paper figure's
data as an ASCII table on stdout.

Scenario specs: ``repro scenario list`` names the built-in presets and
``repro scenario show demo-small`` prints one as JSON; ``repro run
--scenario spec.json`` solves a saved ``ScenarioSpec`` (solver settings
come from the spec) and ``--scenario NAME`` a preset; ``repro batch``
runs many spec files through the ``BatchRunner``, building shared
scenarios once.  ``repro dynamic`` runs a long-horizon mission (churn,
mobility, relocation, faults) from a dynamic preset or spec file.

Observability: the ``run``, ``experiments``, ``batch``, ``dynamic`` and
``mission`` commands accept ``--trace PATH`` / ``--timeline PATH`` (write
the JSONL run record: spec, spans, timeline, metrics), ``--metrics-out
PATH`` (just the metrics snapshot) and ``--archive`` (store the record under
``.repro/runs``); ``repro trace-report`` summarizes a record — timeline
sparklines included — and can export Chrome trace format.  ``repro
profile SCENARIO`` runs a preset/spec under the sampling profiler and
writes a speedscope file; ``repro runs list|show|compare`` queries the
archive; ``repro perf-diff --attribute`` names the regressed kernel.
Without these flags the observability layer stays off and adds no
overhead.

Crash safety: ``run``, ``experiments`` and ``batch`` accept
``--checkpoint DIR`` (journal solver and batch progress into DIR with
atomic snapshots) and ``--resume`` (pick up where a previous identical
invocation stopped).  A first Ctrl-C drains gracefully — the solver
flushes a final checkpoint, the command reports the partial state and
exits with code 130; a second Ctrl-C aborts immediately.  See
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.approx import appro_alg
from repro.core.ratio import approximation_ratio
from repro.sim.experiments import (
    DEFAULT_ANCHOR_POOL,
    fig4_sweep,
    fig5_sweep,
    fig6_sweep,
)
from repro.workload.scenarios import SCALES, paper_scenario


#: figure -> (sweep, metric, table title)
_FIGURES = {
    "fig4": (fig4_sweep, "served",
             "Fig. 4 - served users vs K (n=3000, s=3)"),
    "fig5": (fig5_sweep, "served",
             "Fig. 5 - served users vs n (K=20, s=3)"),
    "fig6a": (fig6_sweep, "served",
              "Fig. 6(a) - served users vs s (n=3000, K=20)"),
    "fig6b": (fig6_sweep, "runtime_s",
              "Fig. 6(b) - running time (s) vs s (n=3000, K=20)"),
}


def add_engine_args(
    parser: argparse.ArgumentParser,
    anchor_pool_default: int = DEFAULT_ANCHOR_POOL,
) -> None:
    """The shared solver-engine flags (seed, workers, anchor pool).
    Every static solving subcommand — run, experiments — wires these
    through this one helper, so the flags stay consistent."""
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument(
        "--anchor-pool",
        type=int,
        default=anchor_pool_default,
        help="approAlg anchor-candidate pool size (0 = unrestricted)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for approAlg's subset fan-out (default 1)",
    )


def _add_experiments(sub) -> None:
    """``repro experiments FIGURE`` and its flags."""
    parser = sub.add_parser(
        "experiments",
        help="regenerate one paper figure's data (Figs. 4-6 of Section IV)",
    )
    parser.add_argument(
        "figure", choices=sorted(_FIGURES),
        help="fig4: served vs K; fig5: served vs n; fig6a: served vs s; "
        "fig6b: running time vs s",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="bench",
        help="scenario scale preset (default: bench)",
    )
    parser.add_argument(
        "--reps", type=int, default=1, help="repetitions per sweep point"
    )
    parser.add_argument(
        "--chart", action="store_true",
        help="also render an ASCII line chart of the series",
    )
    add_engine_args(parser)
    add_obs_args(parser)
    add_resilience_args(parser)


def add_resilience_args(parser: argparse.ArgumentParser) -> None:
    """The shared crash-safety flags (durable checkpoints, resume)."""
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal progress into DIR (atomic snapshots of completed "
        "work; solver chunk checkpoints for approAlg) so an interrupted "
        "run can be resumed with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint DIR of a previous identical "
        "invocation, skipping work it already finished (a checkpoint "
        "from different settings is detected and ignored)",
    )


def add_dynamic_parser(sub, command: str, default: str, about: str) -> None:
    """A dynamic-mission subcommand whose ``--scenario`` defaults to the
    ``default`` preset (``repro dynamic`` and ``repro mission`` differ
    only there)."""
    parser = sub.add_parser(command, help=about)
    parser.add_argument(
        "--scenario", default=default,
        help="dynamic preset name (dynamic-small, dynamic-surge, "
        "dynamic-headline, mission-small) or DynamicSpec JSON file "
        f"(default {default})",
    )
    parser.add_argument(
        "--seeds", type=int, default=1,
        help="run a seed grid of this size (spec.seed, spec.seed+1, ...) "
        "and print the aggregated table (default 1 = single run)",
    )
    parser.add_argument(
        "--policy", choices=("periodic", "drift", "event"), default=None,
        help="override the spec's re-solve policy",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="override the mission duration (seconds)",
    )
    parser.add_argument(
        "--epoch", type=float, default=None,
        help="override the epoch cadence (seconds)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override seed")
    parser.add_argument(
        "--cold", action="store_true",
        help="disable warm-starting (every epoch re-solve rebuilds the "
        "graph and context from scratch; results are identical, only "
        "slower)",
    )
    parser.add_argument(
        "--record-bench", action="store_true",
        help="also run the mission cold and merge the warm-vs-cold "
        "re-solve latency point into BENCH_approx.json",
    )
    add_obs_args(parser)


def add_obs_args(parser: argparse.ArgumentParser) -> None:
    """The shared observability flags (tracing, metrics, live heartbeat)."""
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable observability and write the JSONL run record (spec, "
        "spans, timeline, metrics) to PATH; summarize with "
        "'repro trace-report'",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable observability and write the metrics snapshot "
        "to PATH (format set by --metrics-format)",
    )
    parser.add_argument(
        "--metrics-format", choices=("json", "openmetrics"),
        default="json",
        help="--metrics-out file format: 'json' (default) or "
        "'openmetrics' (Prometheus textfile exposition)",
    )
    parser.add_argument(
        "--live", action="store_true",
        help="enable observability and print a live progress heartbeat "
        "(subsets/s, completion %%, ETA, stall warnings) to stderr "
        "while the command runs",
    )
    parser.add_argument(
        "--live-interval", type=float, default=1.0, metavar="SECONDS",
        help="sampling interval of the --live heartbeat (default 1.0)",
    )
    parser.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="enable observability and write the run record to PATH (the "
        "same file as --trace; its timeline snapshots the counters, worker "
        "gauges and RSS every --live-interval, rendered as sparklines by "
        "'repro trace-report')",
    )
    parser.add_argument(
        "--archive", action="store_true",
        help="enable observability and store this run's record under the "
        "run archive; query with 'repro runs'",
    )
    parser.add_argument(
        "--archive-root", default=None, metavar="DIR",
        help="run-archive directory (default .repro/runs)",
    )


def _pool(args: argparse.Namespace) -> "int | None":
    return None if args.anchor_pool == 0 else args.anchor_pool


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    return dict(
        checkpoint_dir=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
    )


def _report_interrupt(exc) -> int:
    """Describe a graceful drain (SolveInterrupted) and exit like SIGINT."""
    print(f"\ninterrupted: {exc}", file=sys.stderr)
    if exc.checkpoint_path is not None:
        print(
            f"checkpoint flushed to {exc.checkpoint_path} — re-run with "
            "--resume to continue", file=sys.stderr,
        )
    if exc.partial:
        state = ", ".join(f"{k}={v}" for k, v in sorted(exc.partial.items()))
        print(f"partial state: {state}", file=sys.stderr)
    return 130


def _cmd_experiments(args: argparse.Namespace) -> int:
    """Run one figure's sweep and print its table (and chart)."""
    sweep, metric, title = _FIGURES[args.figure]
    kwargs = dict(
        scale=args.scale,
        repetitions=args.reps,
        max_anchor_candidates=_pool(args),
        workers=args.workers,
        **_resilience_kwargs(args),
    )
    if args.seed is not None:
        kwargs["seed"] = args.seed
    from repro.scenario import SpecError

    try:
        result = sweep(**kwargs)
    except SpecError as exc:
        # A figure's fixed fleet can outnumber the scale's locations, and
        # --reps must be at least one.
        print(f"error: {args.figure} --scale {args.scale}: {exc}",
              file=sys.stderr)
        return 2
    # The run record names the specs that ran, as `repro batch` does.
    args._spec = result.specs
    print(result.to_text(metric=metric, title=title))
    if args.chart:
        from repro.util.charts import ascii_chart

        print()
        print(ascii_chart(result.series(metric), title=f"{title} [chart]"))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 42
    problem = paper_scenario(
        num_users=300, num_uavs=6, scale="small", seed=seed
    )
    result = appro_alg(problem, s=2)
    print(
        f"demo: {problem.num_users} users, {problem.num_uavs} UAVs, "
        f"{problem.num_locations} candidate locations"
    )
    print(
        f"approAlg(s=2) served {result.served} users "
        f"({result.served / problem.num_users:.0%}) at anchors "
        f"{result.anchors}; theoretical guarantee "
        f"{approximation_ratio(problem.num_uavs, 2):.3f} of optimum"
    )
    for k, loc in sorted(result.deployment.placements.items()):
        load = result.deployment.load_of(k)
        cap = problem.fleet[k].capacity
        print(f"  UAV {k} (capacity {cap:3d}) at location {loc:3d}: "
              f"{load} users")
    from repro.sim.metrics import summarize

    metrics = summarize(problem, result.deployment)
    print(
        f"throughput {metrics.throughput_bps / 1e6:.1f} Mbps, capacity "
        f"utilisation {metrics.capacity_utilisation:.0%}, load fairness "
        f"{metrics.load_fairness:.2f}"
    )
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.sim.render import ascii_map

    seed = args.seed if args.seed is not None else 42
    problem = paper_scenario(
        num_users=args.users, num_uavs=args.uavs, scale=args.scale, seed=seed
    )
    result = appro_alg(
        problem, s=2, gain_mode="fast",
        max_anchor_candidates=min(10, problem.num_locations),
    )
    print(ascii_map(problem, result.deployment, cols=args.cols,
                    rows=args.cols // 2))
    print(f"served {result.served}/{problem.num_users} users")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    """Quick end-to-end health check of the installation."""
    from repro.core.exact import exact_optimum_value
    from repro.core.ratio import approximation_ratio as ratio
    from repro.network.validate import validate_deployment
    from repro.scenario import DEFAULT_REGISTRY, SolvePipeline

    failures = 0
    problem = paper_scenario(num_users=120, num_uavs=4, scale="small", seed=1)

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"  [{'ok' if ok else 'FAIL'}] {label}")
        failures += 0 if ok else 1

    print("selfcheck: tiny scenario (120 users, 4 UAVs, 9 locations)")
    result = appro_alg(problem, s=2)
    try:
        validate_deployment(problem.graph, problem.fleet, result.deployment)
        valid = True
    except AssertionError:
        valid = False
    check("approAlg produces a feasible deployment", valid)
    check("approAlg serves someone", result.served > 0)
    opt = exact_optimum_value(problem)
    check(
        f"Theorem 1 guarantee holds (served {result.served}, opt {opt}, "
        f"bound {ratio(4, 2):.3f})",
        result.served >= ratio(4, 2) * opt,
    )
    pipeline = SolvePipeline()
    for name in DEFAULT_REGISTRY.names():
        if name == "approAlg":
            continue
        try:
            state = pipeline.solve(problem, name)
            check(f"{name} feasible (served {state.served})", True)
        except Exception as exc:  # noqa: BLE001 - selfcheck reports anything
            check(f"{name} raised {type(exc).__name__}: {exc}", False)
    print("selfcheck:", "all good" if failures == 0 else f"{failures} failures")
    return 0 if failures == 0 else 1


def _read_spec_json(path: str):
    """The JSON document in the spec file ``path``; a file that is not
    JSON raises :class:`~repro.scenario.SpecError` naming it, the
    message ``repro batch`` prints for the same file."""
    import json
    from pathlib import Path

    from repro.scenario import SpecError

    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: spec is not valid JSON: {exc}") from None


def _run_spec_from_args(args: argparse.Namespace):
    """Describe the ``repro run`` flags as a :class:`ScenarioSpec`."""
    from repro.scenario import ScenarioSpec

    algorithm_params: dict = {}
    if args.algorithm == "approAlg":
        algorithm_params = {"s": args.s, "gain_mode": "fast"}
        if args.anchor_pool:
            algorithm_params["max_anchor_candidates"] = args.anchor_pool
    return ScenarioSpec(
        name="cli-run",
        scale=args.scale,
        num_users=args.users,
        num_uavs=args.uavs,
        seed=args.seed if args.seed is not None else 0,
        algorithm=args.algorithm,
        algorithm_params=algorithm_params,
        workers=args.workers,
    )


def _scale_overrides(args: argparse.Namespace) -> dict:
    """The aggregation/tiling flags as ScenarioSpec overrides — applied
    on top of whatever spec ``repro run`` resolved (flags, preset, or
    file), so ``--tiles 2x2`` works with any of them."""
    overrides: dict = {}
    if getattr(args, "aggregate", None) is not None:
        overrides["aggregation"] = args.aggregate
    if getattr(args, "cell_size", None) is not None:
        overrides["aggregation"] = "cells"
        overrides["cell_size_m"] = args.cell_size
    if getattr(args, "tiles", None) is not None:
        overrides["tiles"] = args.tiles
    if getattr(args, "tile_overlap", None) is not None:
        overrides["tile_overlap_m"] = args.tile_overlap
    return overrides


def _require_algorithm(name: str, registry) -> None:
    """An algorithm ``registry`` does not know, as a
    :class:`~repro.scenario.SpecError` naming the known ones."""
    from repro.scenario import SpecError

    try:
        registry.get(name)
    except KeyError as exc:
        raise SpecError(exc.args[0]) from None


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one algorithm on a scenario — from flags, a named preset or a
    ScenarioSpec JSON file — and optionally save the deployment and/or
    record a perf-trajectory point."""
    import time
    from pathlib import Path

    from repro.network.deployment import CellDeployment
    from repro.scenario import ScenarioSpec, SolvePipeline, SpecError, get_preset
    from repro.scenario.spec import SPEC_KIND
    from repro.sim.io import save_deployment
    from repro.sim.metrics import summarize

    started = time.perf_counter()
    pipeline = SolvePipeline(**_resilience_kwargs(args))
    # Flag specs are checked as they are built, so a bad flag (--users 0)
    # fails here as cleanly as a bad spec file does.
    try:
        if args.scenario is not None and not Path(args.scenario).exists():
            # Not a file: try the named presets (repro scenario list).
            try:
                spec = get_preset(args.scenario)
            except KeyError as exc:
                print(f"error: {args.scenario}: not a spec file, and "
                      f"{exc.args[0]}", file=sys.stderr)
                return 2
        elif args.scenario is not None:
            # Scenario AND algorithm/engine options come from the file;
            # the solver flags on the command line are ignored in favour
            # of the spec's (except the aggregation and tiling overrides,
            # which compose with any spec).
            data = _read_spec_json(args.scenario)
            kind = data.get("kind") if isinstance(data, dict) else None
            if kind != SPEC_KIND:
                raise SpecError(
                    f"{args.scenario}: expected a {SPEC_KIND} document, "
                    f"got kind = {kind!r}"
                )
            spec = ScenarioSpec.from_dict(data)
        else:
            spec = _run_spec_from_args(args)
        overrides = _scale_overrides(args)
        if overrides:
            spec = spec.with_overrides(**overrides)
        # The run record names the spec that ran; stash it for
        # _observed, which only sees the parsed args.
        args._spec = spec
        _require_algorithm(spec.algorithm, pipeline.registry)
        state = pipeline.run(spec)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The perf point's wall covers build and solve; record.runtime_s is
    # the solve alone.
    wall_s = time.perf_counter() - started
    record, problem, deployment = state.record, state.problem, state.deployment
    args._served = record.served
    print(
        f"{record.algorithm}: served {record.served}/{record.num_users} "
        f"users in {record.runtime_s:.2f}s"
    )
    if isinstance(deployment, CellDeployment):
        # Demand-cell solves have no per-user assignment to summarize;
        # report the aggregated shape instead.
        report = state.report or {}
        cells = getattr(problem.graph, "num_cells", 0)
        line = (
            f"{cells} demand cells, {deployment.num_deployed} UAVs deployed"
        )
        if report.get("tiles"):
            line += (
                f", tiles {report['tiles']} "
                f"({report.get('tiles_solved', 0)} solved, "
                f"{report.get('relays_added', 0)} relays"
                + (", degraded" if report.get("degraded") else "")
                + ")"
            )
        print(line)
    else:
        metrics = summarize(problem, deployment)
        print(
            f"throughput {metrics.throughput_bps / 1e6:.1f} Mbps, utilisation "
            f"{metrics.capacity_utilisation:.0%}, fairness "
            f"{metrics.load_fairness:.2f}"
        )
    if args.record_bench:
        from repro.obs.bench import record_trajectory_point
        from repro.obs.profile import peak_rss_mb

        out = record_trajectory_point(
            scenario=f"run:{spec.name}",
            algorithm=record.algorithm,
            served=record.served,
            wall_s=wall_s,
            workers=spec.workers,
            scale=spec.scale,
            peak_rss_mb=peak_rss_mb(),
        )
        print(f"perf point run:{spec.name} recorded in {out}")
    if args.save is not None:
        if isinstance(deployment, CellDeployment):
            print("error: --save does not support demand-cell deployments "
                  "(no per-user assignment to serialize)", file=sys.stderr)
            return 2
        save_deployment(args.save, deployment)
        print(f"deployment written to {args.save}")
    if args.report:
        from repro.sim.report import deployment_report

        print()
        print(deployment_report(problem, deployment))
    return 0


def _dynamic_spec(args: argparse.Namespace):
    """Resolve ``repro dynamic --scenario``: preset name or DynamicSpec
    JSON file."""
    from pathlib import Path

    from repro.dynamics import DynamicSpec, get_dynamic_preset

    if Path(args.scenario).exists():
        return DynamicSpec.from_dict(_read_spec_json(args.scenario))
    try:
        return get_dynamic_preset(args.scenario)
    except KeyError as exc:
        raise ValueError(
            f"{args.scenario}: not a spec file, and {exc.args[0]}"
        ) from exc


def _cmd_dynamic(args: argparse.Namespace) -> int:
    """Run a long-horizon dynamic mission (churn, mobility, relocation,
    faults) with warm-started epoch re-solves; optionally across a seed
    grid, and optionally recording the warm-vs-cold latency bench point."""
    from repro.dynamics import run_dynamic, run_seed_grid
    from repro.scenario import SpecError
    from repro.scenario.registry import DEFAULT_REGISTRY

    try:
        spec = _dynamic_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.policy is not None:
        overrides["resolve_policy"] = args.policy
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    if args.epoch is not None:
        overrides["epoch_s"] = args.epoch
    if overrides:
        try:
            spec = spec.with_overrides(**overrides)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    args._spec = spec
    warm = False if args.cold else None

    try:
        _require_algorithm(spec.algorithm, DEFAULT_REGISTRY)
        if args.seeds > 1:
            grid = run_seed_grid(spec, num_seeds=args.seeds, warm=warm)
        else:
            result = run_dynamic(spec, warm=warm)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seeds > 1:
        print(grid.to_text())
        args._served = grid.results[-1].final_served if grid.results else None
        return 0

    args._served = result.final_served
    summary = result.to_dict()
    print(
        f"dynamic {spec.name}: {summary['resolves']} re-solves "
        f"({result.policy} policy, {'warm' if result.warm else 'cold'}), "
        f"coverage mean {result.mean_coverage:.3f} / min "
        f"{result.min_coverage:.3f} / final {result.final_coverage:.3f}"
    )
    print(
        f"  churn: {result.arrivals} arrivals, {result.departures} "
        f"departures; {result.faults} faults"
    )
    p95 = result.p95_time_to_serve_s
    lat = result.median_resolve_latency_s
    print(
        f"  p95 time-to-serve "
        f"{'-' if p95 is None else f'{p95:.1f}s'}, median re-solve "
        f"{'-' if lat is None else f'{lat * 1e3:.1f}ms'}, wall "
        f"{result.wall_s:.2f}s"
    )

    if args.record_bench:
        from repro.obs.bench import record_trajectory_point

        # The headline point pairs the warm run above with a cold run of
        # the identical spec (same seeds => same event stream), so the
        # recorded speedup is a like-for-like epoch re-solve comparison.
        cold = run_dynamic(spec, warm=False)
        warm_lat = result.median_resolve_latency_s
        cold_lat = cold.median_resolve_latency_s
        speedup = (
            None if not warm_lat or not cold_lat else cold_lat / warm_lat
        )
        out = record_trajectory_point(
            scenario=f"run:{spec.name}",
            algorithm=spec.algorithm,
            served=result.final_served,
            wall_s=result.wall_s,
            scale=spec.scale,
            speedup=speedup,
            warm_median_resolve_s=warm_lat,
            cold_median_resolve_s=cold_lat,
        )
        shown = "-" if speedup is None else f"{speedup:.2f}x"
        print(
            f"perf point run:{spec.name} recorded in {out} "
            f"(warm-vs-cold re-solve speedup {shown})"
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run many ScenarioSpec JSON files through one shared pipeline."""
    from repro.scenario import BatchRunner, ScenarioSpec, SolvePipeline, SpecError

    specs = []
    for path in args.specs:
        try:
            specs.append(ScenarioSpec.load(path))
        except (OSError, SpecError, ValueError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
    args._spec = specs
    runner = BatchRunner(
        pipeline=SolvePipeline(strict=False), workers=args.workers,
        **_resilience_kwargs(args),
    )
    result = runner.run(specs)
    print(result.to_text())
    failures = [
        item for item in result.items if item.record.status != "ok"
    ]
    for item in failures:
        print(
            f"error: spec #{item.index} ({item.spec.name}): "
            f"{item.record.status}: {item.record.error}",
            file=sys.stderr,
        )
    return 0 if not failures else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Inspect the named scenario presets (list, or dump one as JSON)."""
    from repro.scenario import get_preset, preset_names

    if args.action == "list":
        for name in preset_names():
            preset = get_preset(name)
            print(
                f"{name:16s} scale={preset.scale:6s} "
                f"users={preset.to_config().num_users:<5d} "
                f"uavs={preset.to_config().num_uavs:<3d} "
                f"seed={preset.seed} algorithm={preset.algorithm}"
            )
        return 0
    if args.preset is None:
        print("error: 'repro scenario show' needs a preset name "
              "(see 'repro scenario list')", file=sys.stderr)
        return 2
    try:
        preset = get_preset(args.preset)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(preset.to_json())
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    """Summarize a run record; optionally export Chrome trace."""
    from repro.obs import read_record, summarize, write_chrome_trace

    try:
        record = read_record(args.path)
    except FileNotFoundError:
        print(f"error: no run record at {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: malformed run record: {exc}", file=sys.stderr)
        return 2
    print(summarize(record))
    if args.chrome is not None:
        write_chrome_trace(args.chrome, record.spans)
        print(f"\nchrome trace written to {args.chrome} "
              "(load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _archive(args: argparse.Namespace):
    from repro.obs import RunArchive

    root = args.archive_root
    return RunArchive() if root is None else RunArchive(root)


def _observed(handler, args: argparse.Namespace) -> int:
    """Run a command with the observability layer on: one sampler feeds
    the ``--live`` line and the timeline, and afterwards (even if the
    command raises) one run record goes to ``--trace`` / ``--timeline`` /
    ``--archive`` and the metrics to ``--metrics-out``."""
    import json
    import time as _time

    from repro import obs

    obs.reset()
    obs.enable()
    sampler = None
    outputs = {"trace": args.trace, "timeline": args.timeline}
    if any(outputs.values()) or args.archive or args.live:
        sampler = obs.Sampler(
            obs.SamplerConfig(interval_s=args.live_interval),
            progress=sys.stderr if args.live else None,
        )
        # Event loops (the dynamics engine) snapshot at every state
        # change via obs.record_mark().
        obs.set_active_recorder(sampler)
        sampler.start()
    start = _time.perf_counter()
    exit_code: "int | None" = None
    try:
        exit_code = handler(args)
    finally:
        wall = _time.perf_counter() - start
        if sampler is not None:
            obs.set_active_recorder(None)
            sampler.stop()
        obs.disable()
        record = obs.build_record(
            args.command, wall_s=wall, exit_code=exit_code,
            spans=obs.drain_spans(), metrics=obs.metrics_snapshot(),
            spec=getattr(args, "_spec", None),
            seed=getattr(args, "seed", None),
            algorithm=getattr(args, "algorithm", None),
            config=vars(args), served=getattr(args, "_served", None),
            sampler=sampler,
        )
        obs.reset()
        for flag, path in outputs.items():
            if path is not None:
                obs.write_record(path, record)
                print(f"{flag} ({len(record.spans)} spans, "
                      f"{len(record.timeline)} snapshots) written to {path}")
        if args.archive:
            archive = _archive(args)
            print(f"run archived as {archive.record_run(record)} under "
                  f"{archive.root}")
        if args.metrics_out is not None:
            if args.metrics_format == "openmetrics":
                obs.write_openmetrics(args.metrics_out, record.metrics, info={
                    "command": record.command, "seed": record.seed,
                    "algorithm": record.algorithm, "git": record.git_rev,
                })
            else:
                with open(args.metrics_out, "w", encoding="utf-8") as fh:
                    json.dump({"header": record.header(), **record.metrics},
                              fh, indent=2)
            print(f"metrics written to {args.metrics_out}")
    return exit_code


def _cmd_perf_diff(args: argparse.Namespace) -> int:
    """Compare two perf recordings; exit 1 only on a wall-time regression."""
    import json

    from repro.obs import perf_diff_paths

    try:
        diff = perf_diff_paths(
            args.baseline, args.current,
            threshold=args.threshold, window=args.window,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        payload = diff.to_dict()
        if args.attribute:
            payload["attribution"] = diff.attribution()
        print(json.dumps(payload, indent=2))
    else:
        print(diff.to_text())
        if args.attribute:
            print()
            print(diff.attribution_text())
    return diff.exit_code


def _profile_spec(args: argparse.Namespace):
    """Resolve the ``repro profile`` scenario: preset name or spec file."""
    from pathlib import Path

    from repro.scenario import ScenarioSpec, get_preset

    if Path(args.scenario).exists():
        data = _read_spec_json(args.scenario)
        if data.get("kind") != "scenario-spec":
            raise ValueError(
                f"{args.scenario}: not a ScenarioSpec file "
                "(expected kind 'scenario-spec')"
            )
        return ScenarioSpec.from_dict(data)
    try:
        return get_preset(args.scenario)
    except KeyError as exc:
        raise ValueError(
            f"{args.scenario}: not a spec file, and {exc.args[0]}"
        ) from exc


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario under the sampling profiler and report hot spots."""
    import time as _time

    from repro import obs
    from repro.obs.profile import ProfileConfig, SamplingProfiler
    from repro.scenario import SolvePipeline, SpecError
    from repro.util.tables import format_table

    try:
        spec = _profile_spec(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    obs.reset()
    obs.enable()
    profiler = SamplingProfiler(
        ProfileConfig(hz=args.hz, memory=not args.no_memory)
    )
    start = _time.perf_counter()
    state = None
    try:
        with profiler:
            try:
                state = SolvePipeline().run(spec)
            except SpecError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    finally:
        obs.disable()
        spans = obs.drain_spans()
        metrics = obs.metrics_snapshot()
        obs.reset()
    wall = _time.perf_counter() - start
    record = state.record
    print(
        f"{record.algorithm}: served {record.served}/{record.num_users} "
        f"users in {record.runtime_s:.2f}s"
    )
    print(
        f"profiler: {profiler.samples} samples at "
        f"{profiler.config.hz:g} Hz over {profiler.duration_s:.2f}s"
    )
    top = profiler.top_functions(limit=args.top)
    if top:
        denom = max(profiler.samples, 1)
        rows = [[label, count, f"{count / denom:.0%}"]
                for label, count in top]
        print(format_table(
            ["function", "samples", "share"], rows,
            title=f"hottest functions (top {len(rows)})",
        ))
    stages = profiler.memory_stages_mb()
    if stages:
        rows = [[stage, f"{mb:.1f}"]
                for stage, mb in sorted(stages.items(),
                                        key=lambda kv: -kv[1])]
        print(format_table(["stage", "peak MiB"], rows,
                           title="per-stage memory watermarks"))
    if profiler.peak_rss_mb is not None:
        print(f"peak RSS {profiler.peak_rss_mb:.1f} MiB")
    out = args.out if args.out is not None else f"{spec.name}.speedscope.json"
    profiler.write_speedscope(out, name=f"repro profile {spec.name}")
    print(f"speedscope profile written to {out} "
          "(open at https://www.speedscope.app)")
    if args.collapsed is not None:
        profiler.write_collapsed(args.collapsed)
        print(f"collapsed stacks written to {args.collapsed}")
    if args.archive:
        run = obs.build_record(
            "profile", wall_s=wall, exit_code=0, spans=spans,
            metrics=metrics, spec=spec, config=vars(args),
            served=record.served, profiler=profiler,
        )
        archive = _archive(args)
        print(f"run archived as {archive.record_run(run, profiler)} under "
              f"{archive.root}")
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    """Inspect the durable run archive: list, show, compare.  ``show``
    and ``compare`` take archive ids or run record paths."""
    from repro import obs
    from repro.util.tables import format_table

    archive = _archive(args)
    if args.action == "list":
        entries = archive.list_runs()
        if not entries:
            print(f"no archived runs under {archive.root}")
            return 0
        rows = []
        for e in entries:
            key = e.get("scenario_key")
            rows.append([
                e.get("id", "?"),
                e.get("command") or "-",
                e.get("algorithm") or "-",
                "-" if not key else ",".join(str(p) for p in key[:4]),
                f"{e.get('wall_s') or 0.0:.2f}",
                "-" if e.get("served") is None else e["served"],
                ("T" if e.get("has_timeline") else "-")
                + ("P" if e.get("has_profile") else "-"),
            ])
        print(format_table(
            ["id", "command", "algorithm", "scenario", "wall s",
             "served", "art"],
            rows, title=f"archived runs under {archive.root}",
        ))
        return 0
    arity = {"show": (1, "one run id"),
             "compare": (2, "two run ids (baseline current)")}
    wanted, what = arity[args.action]
    if len(args.run_ids) != wanted:
        print(f"error: 'runs {args.action}' takes exactly {what}",
              file=sys.stderr)
        return 2
    try:
        runs = [archive.load(ref) for ref in args.run_ids]
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.action == "show":
        print(obs.summarize(runs[0]))
        return 0
    comparison = obs.compare_runs(*runs, threshold=args.threshold)
    print(comparison.to_text())
    return comparison.exit_code


def _cmd_ratio(args: argparse.Namespace) -> int:
    from repro.core.ratio import l1_of
    from repro.core.segments import optimal_segments
    from repro.util.tables import format_table

    for flag, values in (("--k", args.k), ("--s", args.s)):
        bad = [v for v in values if v < 1]
        if bad:
            print(f"error: {flag} values must be >= 1, got {bad[0]}",
                  file=sys.stderr)
            return 2
    rows = []
    for k in args.k:
        for s in args.s:
            if s > k:
                continue
            plan = optimal_segments(k, s)
            rows.append(
                [k, s, l1_of(k, s), plan.lmax,
                 f"{approximation_ratio(k, s):.4f}"]
            )
    print(format_table(
        ["K", "s", "L1 (Thm 1)", "Lmax (Alg 1)", "guarantee"], rows,
        title="Theorem 1 guarantees and Algorithm 1 sub-path lengths",
    ))
    return 0


def main(argv: "list | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Coverage Maximization of "
        "Heterogeneous UAV Networks' (ICDCS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_experiments(sub)

    demo = sub.add_parser("demo", help="tiny end-to-end run")
    demo.add_argument("--seed", type=int, default=None)

    map_cmd = sub.add_parser("map", help="ASCII map of a deployment")
    map_cmd.add_argument("--seed", type=int, default=None)
    map_cmd.add_argument("--users", type=int, default=600)
    map_cmd.add_argument("--uavs", type=int, default=8)
    map_cmd.add_argument("--scale", choices=sorted(SCALES), default="bench")
    map_cmd.add_argument("--cols", type=int, default=60)

    ratio_cmd = sub.add_parser(
        "ratio", help="Theorem 1 guarantee table for K and s values"
    )
    ratio_cmd.add_argument("--k", type=int, nargs="+",
                           default=[5, 10, 20, 50, 100])
    ratio_cmd.add_argument("--s", type=int, nargs="+", default=[1, 2, 3, 4])

    run_cmd = sub.add_parser(
        "run", help="run one algorithm on a scenario, optionally save JSON"
    )
    run_cmd.add_argument(
        "--algorithm", default="approAlg",
        help="registered algorithm name (default approAlg)",
    )
    run_cmd.add_argument(
        "--scenario", default=None,
        help="a ScenarioSpec JSON file (kind 'scenario-spec', see "
        "'repro scenario show') or a preset name ('repro scenario list')",
    )
    run_cmd.add_argument(
        "--aggregate", choices=("users", "cells"), default=None,
        help="solve over individual users (default) or aggregated demand "
        "cells (see docs/SCALE.md)",
    )
    run_cmd.add_argument(
        "--cell-size", type=float, default=None, dest="cell_size",
        metavar="METRES",
        help="demand-cell edge length (implies --aggregate cells; omit "
        "for singleton cells)",
    )
    run_cmd.add_argument(
        "--tiles", default=None, metavar="NxM",
        help="shard the area into an NxM tile grid, solve tiles "
        "independently and stitch (see docs/SCALE.md)",
    )
    run_cmd.add_argument(
        "--tile-overlap", type=float, default=None, dest="tile_overlap",
        metavar="METRES",
        help="how far each tile's candidate locations reach past its "
        "core bounds (default 0)",
    )
    run_cmd.add_argument(
        "--record-bench", action="store_true",
        help="merge this run's served/wall-time into BENCH_approx.json "
        "(same schema and key semantics as the bench suite)",
    )
    run_cmd.add_argument("--save", default=None,
                         help="write the deployment JSON here")
    run_cmd.add_argument("--users", type=int, default=600)
    run_cmd.add_argument("--uavs", type=int, default=8)
    run_cmd.add_argument("--scale", choices=sorted(SCALES), default="bench")
    run_cmd.add_argument("--s", type=int, default=2)
    run_cmd.add_argument(
        "--report", action="store_true",
        help="print the full operational report (fleet, failures, spectrum)",
    )
    add_engine_args(run_cmd)
    add_obs_args(run_cmd)
    add_resilience_args(run_cmd)

    batch_cmd = sub.add_parser(
        "batch",
        help="run many ScenarioSpec JSON files through one shared pipeline "
        "(scenario builds and solver contexts are reused across specs)",
    )
    batch_cmd.add_argument("specs", nargs="+", metavar="SPEC",
                           help="ScenarioSpec JSON files")
    batch_cmd.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size for distinct scenarios (default 1)",
    )
    add_obs_args(batch_cmd)
    add_resilience_args(batch_cmd)

    for command, default, about in (
        ("dynamic", "dynamic-small",
         "long-horizon dynamic mission: streaming churn, moving hotspots, "
         "relocation transit, faults, and warm-started epoch re-solves (see "
         "docs/DYNAMICS.md)"),
        ("mission", "mission-small",
         "fault-injected mission: UAV crashes and link faults, each "
         "answered by a repair re-solve ('repro dynamic' with another "
         "default scenario)"),
    ):
        add_dynamic_parser(sub, command, default, about)

    scenario_cmd = sub.add_parser(
        "scenario", help="inspect the named scenario presets"
    )
    scenario_cmd.add_argument("action", choices=("list", "show"))
    scenario_cmd.add_argument("preset", nargs="?", default=None,
                              help="preset name (for 'show')")

    sub.add_parser("selfcheck", help="quick end-to-end installation check")

    report_cmd = sub.add_parser(
        "trace-report", help="summarize a run record"
    )
    report_cmd.add_argument(
        "path", help="run record (--trace/--timeline file or archived run "
        "directory)")
    report_cmd.add_argument(
        "--chrome", default=None, metavar="PATH",
        help="also export Chrome trace format here",
    )

    diff_cmd = sub.add_parser(
        "perf-diff",
        help="compare two perf recordings (BENCH_approx.json trajectories "
        "or run records); exit 1 on wall-time regression",
    )
    diff_cmd.add_argument("baseline", help="baseline trajectory/run record")
    diff_cmd.add_argument("current", help="current trajectory/run record")
    diff_cmd.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative wall-time increase tolerated before a key counts "
        "as regressed (default 0.15 = 15%%)",
    )
    diff_cmd.add_argument(
        "--window", type=int, default=3,
        help="per-key median window over the most recent points "
        "(default 3)",
    )
    diff_cmd.add_argument(
        "--json", action="store_true",
        help="print the diff as JSON instead of a table",
    )
    diff_cmd.add_argument(
        "--attribute", action="store_true",
        help="also name the dominant regressing kernel per key (uses the "
        "recorded context_build_s / bound_pass_ms / gain_matrix_ms)",
    )

    profile_cmd = sub.add_parser(
        "profile",
        help="run one scenario under the sampling profiler and report "
        "hot functions, per-stage memory watermarks, and peak RSS",
    )
    profile_cmd.add_argument(
        "scenario",
        help="preset name ('repro scenario list') or ScenarioSpec JSON",
    )
    profile_cmd.add_argument(
        "--hz", type=float, default=97.0,
        help="sampling frequency (default 97 Hz)",
    )
    profile_cmd.add_argument(
        "--no-memory", action="store_true",
        help="skip the tracemalloc stage watermarks (cheaper)",
    )
    profile_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="speedscope JSON output (default <scenario>.speedscope.json)",
    )
    profile_cmd.add_argument(
        "--collapsed", default=None, metavar="PATH",
        help="also write collapsed flamegraph stacks here",
    )
    profile_cmd.add_argument(
        "--top", type=int, default=10,
        help="how many hot functions to print (default 10)",
    )
    profile_cmd.add_argument(
        "--archive", action="store_true",
        help="record the profiled run in the run archive",
    )
    profile_cmd.add_argument(
        "--archive-root", default=None, metavar="DIR",
        help="archive directory (default .repro/runs)",
    )

    runs_cmd = sub.add_parser(
        "runs",
        help="query the durable run archive (.repro/runs): list runs, "
        "show one, or compare two and name the regressed kernel",
    )
    runs_cmd.add_argument("action", choices=("list", "show", "compare"))
    runs_cmd.add_argument("run_ids", nargs="*", metavar="RUN_ID",
                          help="one id for 'show', two for 'compare' (an "
                          "archive id or a run record path)")
    runs_cmd.add_argument(
        "--root", default=None, dest="archive_root", metavar="DIR",
        help="archive directory (default .repro/runs)",
    )
    runs_cmd.add_argument(
        "--threshold", type=float, default=0.15,
        help="relative slowdown tolerated by 'compare' (default 0.15)",
    )

    args = parser.parse_args(argv)
    handler = _dispatch_handler(args)
    # 'repro profile' has its own --archive but manages the obs layer
    # itself, so the wrapper only engages for commands with the full
    # add_obs_args set (hasattr 'trace' is the marker).
    observed = hasattr(args, "trace") and (
        args.trace is not None
        or getattr(args, "metrics_out", None) is not None
        or getattr(args, "live", False)
        or getattr(args, "timeline", None) is not None
        or getattr(args, "archive", False)
    )
    from repro.util.interrupt import SolveInterrupted, graceful_shutdown

    # First SIGINT/SIGTERM requests a cooperative drain (the solver
    # flushes a checkpoint and raises SolveInterrupted at the next safe
    # boundary); a second one aborts the old-fashioned way.
    with graceful_shutdown():
        try:
            if observed:
                return _observed(handler, args)
            return handler(args)
        except SolveInterrupted as exc:
            return _report_interrupt(exc)


def _dispatch_handler(args: argparse.Namespace):
    """Resolve the subcommand to its handler (a callable of ``args``)."""
    if args.command == "experiments":
        return _cmd_experiments
    if args.command == "demo":
        return _cmd_demo
    if args.command == "map":
        return _cmd_map
    if args.command == "ratio":
        return _cmd_ratio
    if args.command == "run":
        return _cmd_run
    if args.command == "batch":
        return _cmd_batch
    if args.command in ("dynamic", "mission"):
        return _cmd_dynamic
    if args.command == "scenario":
        return _cmd_scenario
    if args.command == "selfcheck":
        return _cmd_selfcheck
    if args.command == "trace-report":
        return _cmd_trace_report
    if args.command == "perf-diff":
        return _cmd_perf_diff
    if args.command == "profile":
        return _cmd_profile
    if args.command == "runs":
        return _cmd_runs
    raise AssertionError(f"unhandled command {args.command!r}")
