"""Command-line interface: ``biglittle``.

Usage::

    biglittle list                 # list reproducible experiments
    biglittle run table3           # run one experiment and print it
    biglittle run fig2 --seed 3
    biglittle characterize bbench  # full characterization of one app
    biglittle cprofile browser --top 20 --pstats browser.pstats
    biglittle observe bbench --perfetto trace.json --metrics m.json
    biglittle batch --apps bbench --configs L4+B4,L2+B1 --workers 4
    biglittle sweep coreconfig --workers 8   # fig07/08 on all cores
    biglittle lake query --where workload=bbench \
        --group-by scheduler --agg count,mean:avg_power_mw,migrations

Results (tables, JSON) go to **stdout**; progress and "written to"
notices go to the ``repro`` logger on **stderr** (``-v`` / ``-q``
adjust the level), so redirecting stdout captures exactly the artifact.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.report import render_table
from repro.core.study import CharacterizationStudy, build_app_sim, install_and_run
from repro.experiments.registry import get_experiment, list_experiments
from repro.obs.logsetup import add_verbosity_args, get_logger, setup_from_args
from repro.workloads.mobile import MOBILE_APP_NAMES

log = get_logger("cli")


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [[e.id, e.title] for e in list_experiments()]
    print(render_table(["id", "title"], rows, title="Reproducible paper artifacts"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    result = experiment.runner(seed=args.seed)
    print(result.render())
    if args.json:
        from repro.experiments.serialize import dump_result

        dump_result(result, args.json)
        log.info("json written to %s", args.json)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.taskstats import TaskStatsCollector

    app, sim = build_app_sim(args.app, seed=args.seed)
    profiler = TaskStatsCollector.attach(sim)
    trace = install_and_run(app, sim).trace
    print(profiler.render(top=args.top))
    print()
    print(f"run: {trace.duration_s:.1f} s, {trace.average_power_mw():.0f} mW average")
    return 0


def _cmd_cprofile(args: argparse.Namespace) -> int:
    """Run one simulation under cProfile and print the hottest functions."""
    import cProfile
    import pstats

    app, sim = build_app_sim(args.app, seed=args.seed, fastpath=not args.reference)
    app.install(sim)

    profiler = cProfile.Profile()
    profiler.enable()
    trace = sim.run()
    profiler.disable()
    path = "fast-forward disabled" if args.reference else (
        f"{sim.fastforward_ticks}/{len(trace)} ticks fast-forwarded "
        f"in {sim.fastforward_spans} spans"
    )

    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    print(f"run: {trace.duration_s:.1f} s simulated, {path}")
    if args.pstats:
        stats.dump_stats(args.pstats)
        log.info("pstats written to %s", args.pstats)
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    """Run one app with full observability and export the artifacts."""
    from repro.obs import Observation
    from repro.obs.export import (
        export_events_jsonl,
        export_metrics_json,
        export_perfetto,
        render_summary,
    )

    app, sim = build_app_sim(args.app, seed=args.seed, max_seconds=args.max_seconds)
    observation = Observation.attach(sim)
    log.debug(
        "running %s for up to %.1f simulated seconds",
        args.app, sim.config.max_seconds,
    )
    trace = install_and_run(app, sim).trace
    snapshot = observation.snapshot()

    print(render_summary(snapshot))
    log.info(
        "run: %.1f s simulated, %d events recorded",
        trace.duration_s, len(observation.events),
    )
    if args.perfetto:
        n = export_perfetto(
            args.perfetto, trace, observation.events,
            metadata={"app": args.app, "seed": args.seed},
        )
        log.info("perfetto trace (%d events) written to %s", n, args.perfetto)
    if args.metrics:
        export_metrics_json(args.metrics, snapshot)
        log.info("metrics snapshot written to %s", args.metrics)
    if args.events:
        n = export_events_jsonl(args.events, observation.events)
        log.info("%d events written to %s", n, args.events)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.summary import app_report

    print(app_report(args.app, seed=args.seed).render())
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.study import run_app
    from repro.core.timeline import render_timeline

    run = run_app(args.app, seed=args.seed)
    print(render_timeline(run.trace, width=args.width))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    print(CharacterizationStudy(seed=args.seed).characterize(args.app).render())
    return 0


def _csv(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _make_runner(args: argparse.Namespace, cohorts: bool = False):
    from repro.runner import BatchRunner, ResultCache

    cache = None
    if not args.no_cache:
        cache = ResultCache(root=args.cache_dir)
    return BatchRunner(
        workers=args.workers,
        cache=cache,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 1),
        log_path=getattr(args, "log", None),
        cohorts=cohorts,
        executor=getattr(args, "executor", None),
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.runner import RunSpec

    apps = _csv(args.apps) if args.apps else MOBILE_APP_NAMES
    configs = _csv(args.configs) if args.configs else [None]
    seeds = [int(s) for s in _csv(args.seeds)]
    specs = [
        RunSpec(
            app,
            chip=args.chip,
            core_config=config,
            seed=seed,
            max_seconds=args.max_seconds,
        )
        for app in apps
        for config in configs
        for seed in seeds
    ]
    report = _make_runner(args).run(specs)
    print(report.render())
    if args.json:
        from repro.experiments.serialize import dump_result

        dump_result(
            {"jobs": report.jobs,
             "results": [r.scalars() if r else None for r in report.results],
             "cache_hits": report.cache_hits,
             "cache_misses": report.cache_misses,
             "wall_s": report.wall_s},
            args.json,
        )
        log.info("json written to %s", args.json)
    return 0 if report.succeeded() else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.fig07_08_coreconfig import run_core_config_sweep
    from repro.experiments.fig11_12_13_params import run_param_sweep

    runner = _make_runner(args, cohorts=True)
    apps = _csv(args.apps) if args.apps else None
    if args.target == "coreconfig":
        result = run_core_config_sweep(apps=apps, seed=args.seed, runner=runner)
    else:
        result = run_param_sweep(apps=apps, seed=args.seed, runner=runner)
    print(result.render())
    if args.json:
        from repro.experiments.serialize import dump_result

        dump_result(result, args.json)
        log.info("json written to %s", args.json)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve distributed sweep jobs pulled from a coordinator."""
    from repro.dist import run_worker

    jobs = run_worker(
        args.connect, worker_id=args.id, connect_timeout_s=args.connect_timeout
    )
    log.info("worker session over: %d job(s) served", jobs)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    """Design-space exploration: Pareto search under budget constraints."""
    from repro.explore import (
        AXIS_DEFAULTS,
        Budget,
        DesignSpace,
        ExploreStudy,
        make_sampler,
        reference_space,
    )

    budget = Budget(max_area_mm2=args.area_mm2, max_power_mw=args.power_mw)
    workloads = tuple(_csv(args.workloads)) if args.workloads else ("browser", "pdf-reader")
    if args.axis:
        axes: dict = {"workloads": (workloads,)}
        for item in args.axis:
            name, _, values = item.partition("=")
            if not values:
                raise SystemExit(f"--axis expects name=v1,v2,..., got {item!r}")
            if name not in AXIS_DEFAULTS:
                raise SystemExit(
                    f"unknown axis {name!r}; valid: {', '.join(sorted(AXIS_DEFAULTS))}"
                )
            axes[name] = tuple(_axis_value(v) for v in _csv(values))
        space = DesignSpace(axes=axes, budget=budget)
    else:
        space = reference_space(workloads=workloads, budget=budget)
    sampler = make_sampler(args.sampler, max_points=args.max_points, seed=args.seed)
    study = ExploreStudy(
        space,
        sampler,
        runner=_make_runner(args, cohorts=True),
        full_horizon_s=args.horizon,
        seed=args.seed,
    )
    result = study.run()
    print(result.render())
    if args.json:
        result.save(args.json)
        log.info("frontier artifact written to %s", args.json)
    return 0 if result.full_evaluations() else 1


def _axis_value(text: str):
    """Parse one axis candidate: int, then float, then bare string."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            continue
    return text


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or garbage-collect the on-disk result cache."""
    import repro
    from repro.runner import ResultCache

    cache = ResultCache(root=args.cache_dir)
    stats = cache.disk_stats()
    if args.prune:
        removed_entries, removed_bytes = cache.prune_versions()
        print(
            f"pruned {removed_entries} entries "
            f"({removed_bytes / 1e6:.2f} MB) from versions other than "
            f"{repro.__version__}"
        )
        stats = cache.disk_stats()
    rows = [
        [
            version,
            "current" if version == cache.version else "stale",
            s["entries"],
            f"{s['bytes'] / 1e6:.2f}",
        ]
        for version, s in sorted(stats.items())
    ]
    print(render_table(
        ["version", "status", "entries", "MB"],
        rows,
        title=f"Result cache at {cache.root}",
    ))
    if args.stats:
        from repro.lake import Catalog

        breakdown = Catalog(root=cache.root).breakdown()
        detail_rows = [
            [version, workload, s["entries"], f"{s['bytes'] / 1e6:.2f}"]
            for version, per_app in sorted(breakdown.items())
            for workload, s in sorted(per_app.items())
        ]
        if detail_rows:
            print()
            print(render_table(
                ["version", "app", "entries", "MB"],
                detail_rows,
                title="Per-app breakdown (lake catalog)",
            ))
    return 0


def _parse_where(items: list[str]) -> dict:
    filters = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise SystemExit(f"--where expects dim=value, got {item!r}")
        filters[name] = value
    return filters


def _cmd_lake_index(args: argparse.Namespace) -> int:
    from repro.lake import Catalog

    catalog = Catalog(root=args.cache_dir)
    entries = catalog.rebuild()
    versions = sorted({e.version for e in entries})
    print(
        f"catalog at {catalog.path}: {len(entries)} entries across "
        f"{len(versions)} versions ({', '.join(versions) or 'none'})"
    )
    return 0


def _cmd_lake_query(args: argparse.Namespace) -> int:
    from repro.lake import Catalog, LakeQuery

    query = LakeQuery(Catalog(root=args.cache_dir))
    filters = _parse_where(args.where)
    if filters:
        query = query.where(**filters)
    if args.group_by:
        query = query.group_by(*_csv(args.group_by))
    query = query.agg(*_csv(args.agg))
    result = query.run()
    print(result.render(title="lake query"))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.to_json())
        log.info("query result written to %s", args.json)
    return 0


def _cmd_lake_diff(args: argparse.Namespace) -> int:
    from repro.lake import Catalog
    from repro.lake.regress import diff_versions, render_diff

    payload = diff_versions(
        Catalog(root=args.cache_dir), args.version_a, args.version_b
    )
    print(render_diff(payload))
    if args.json:
        import json as _json

        with open(args.json, "w") as fh:
            _json.dump(payload, fh, indent=2, sort_keys=True)
        log.info("diff written to %s", args.json)
    return 0 if payload["common_specs"] else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_positive_int, default=None,
                        help="worker processes (default: all cores; 1 = serial)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: ~/.cache/repro-runner)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--log", metavar="PATH", default=None,
                        help="append structured JSONL progress events to PATH")
    parser.add_argument("--executor", metavar="BACKEND", default=None,
                        help="execution backend: 'serial', 'pool', or "
                             "tcp://HOST:PORT to coordinate remote "
                             "'biglittle worker' processes (default: "
                             "serial/pool from --workers)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biglittle",
        description="Reproduction toolkit for 'Big or Little' (IISWC 2015)",
    )
    add_verbosity_args(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list reproducible experiments")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment and print its output")
    p_run.add_argument("experiment", help="experiment id (e.g. table3, fig7)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--json", metavar="PATH", default=None,
                       help="also write the result as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_char = sub.add_parser("characterize", help="characterize one application")
    p_char.add_argument("app", choices=MOBILE_APP_NAMES)
    p_char.add_argument("--seed", type=int, default=0)
    p_char.set_defaults(func=_cmd_characterize)

    p_prof = sub.add_parser("profile", help="per-task execution profile of one app")
    p_prof.add_argument("app", choices=MOBILE_APP_NAMES)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--top", type=_positive_int, default=15)
    p_prof.set_defaults(func=_cmd_profile)

    p_cprof = sub.add_parser(
        "cprofile",
        help="run one app under cProfile and print the hottest functions",
    )
    p_cprof.add_argument("app", choices=MOBILE_APP_NAMES)
    p_cprof.add_argument("--seed", type=int, default=0)
    p_cprof.add_argument("--top", type=int, default=25,
                         help="rows of cumulative-time stats to print")
    p_cprof.add_argument("--pstats", metavar="PATH", default=None,
                         help="also dump raw pstats data to PATH")
    p_cprof.add_argument("--reference", action="store_true",
                         help="pin the reference tick loop (no fast-forward)")
    p_cprof.set_defaults(func=_cmd_cprofile)

    p_obs = sub.add_parser(
        "observe",
        help="run one app with full observability and export the artifacts",
    )
    p_obs.add_argument("app", choices=MOBILE_APP_NAMES)
    p_obs.add_argument("--seed", type=int, default=0)
    p_obs.add_argument("--max-seconds", type=float, default=None,
                       help="simulated-seconds cap "
                            "(default: app-family convention)")
    p_obs.add_argument("--perfetto", metavar="PATH", default=None,
                       help="write a Chrome/Perfetto trace-event JSON "
                            "(open at ui.perfetto.dev)")
    p_obs.add_argument("--metrics", metavar="PATH", default=None,
                       help="write the metrics snapshot as JSON")
    p_obs.add_argument("--events", metavar="PATH", default=None,
                       help="write the raw event stream as JSONL")
    p_obs.set_defaults(func=_cmd_observe)

    p_tl = sub.add_parser("timeline", help="ASCII activity/frequency timeline")
    p_tl.add_argument("app", choices=MOBILE_APP_NAMES)
    p_tl.add_argument("--seed", type=int, default=0)
    p_tl.add_argument("--width", type=_positive_int, default=72)
    p_tl.set_defaults(func=_cmd_timeline)

    p_rep = sub.add_parser("report", help="comprehensive single-app report")
    p_rep.add_argument("app", choices=MOBILE_APP_NAMES)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.set_defaults(func=_cmd_report)

    p_batch = sub.add_parser(
        "batch",
        help="run a (apps x configs x seeds) grid through the batch runner",
    )
    p_batch.add_argument("--apps", default=None,
                         help="comma-separated app names (default: all 12)")
    p_batch.add_argument("--configs", default=None,
                         help="comma-separated core configs, e.g. L4+B4,L2+B1 "
                              "(default: all cores enabled)")
    p_batch.add_argument("--seeds", default="0",
                         help="comma-separated seeds (default: 0)")
    p_batch.add_argument("--chip", default="exynos5422-screen",
                         help="chip registry id (default: exynos5422-screen)")
    p_batch.add_argument("--max-seconds", type=float, default=None,
                         help="per-run simulated-seconds cap "
                              "(default: app-family convention)")
    p_batch.add_argument("--timeout", type=float, default=None,
                         help="per-job wall-clock timeout in seconds")
    p_batch.add_argument("--retries", type=_non_negative_int, default=1,
                         help="re-executions for crashed/failed jobs (default: 1)")
    p_batch.add_argument("--json", metavar="PATH", default=None,
                         help="also write the batch report as JSON")
    _add_runner_options(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a full paper sweep (fig07/08 or fig11-13) in parallel",
    )
    p_sweep.add_argument("target", choices=["coreconfig", "params"],
                         help="coreconfig = fig07/08, params = fig11-13")
    p_sweep.add_argument("--apps", default=None,
                         help="comma-separated app names (default: all 12)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--json", metavar="PATH", default=None,
                         help="also write the result as JSON")
    _add_runner_options(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_worker = sub.add_parser(
        "worker",
        help="serve distributed sweep jobs from a coordinator "
             "(see 'sweep --executor tcp://...')",
    )
    p_worker.add_argument("--connect", required=True, metavar="tcp://HOST:PORT",
                          help="coordinator endpoint to pull jobs from")
    p_worker.add_argument("--id", default=None,
                          help="worker id shown in coordinator logs "
                               "(default: host-pid)")
    p_worker.add_argument("--connect-timeout", type=float, default=30.0,
                          metavar="S",
                          help="give up dialing the coordinator after S "
                               "seconds (default 30)")
    p_worker.set_defaults(func=_cmd_worker)

    p_explore = sub.add_parser(
        "explore",
        help="design-space exploration: perf/energy Pareto search over "
             "topology x scheduler x workload space",
    )
    p_explore.add_argument("--workloads", default=None,
                           help="comma-separated workload mix every point runs "
                                "(default: browser,pdf-reader)")
    p_explore.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                           default=None,
                           help="override a design axis (repeatable); "
                                "without any --axis the documented reference "
                                "space is searched")
    p_explore.add_argument("--area-mm2", type=float, default=20.5,
                           help="area budget in mm2 (default: 20.5, which "
                                "admits the paper's 4L+4B chip)")
    p_explore.add_argument("--power-mw", type=float, default=None,
                           help="peak-power budget in mW (default: none)")
    p_explore.add_argument("--sampler", choices=["grid", "random", "adaptive"],
                           default="adaptive",
                           help="search strategy (default: adaptive "
                                "successive halving)")
    p_explore.add_argument("--max-points", type=_positive_int, default=None,
                           help="cap on candidate design points")
    p_explore.add_argument("--horizon", type=float, default=8.0,
                           help="full-fidelity simulated seconds per workload "
                                "(default: 8)")
    p_explore.add_argument("--seed", type=int, default=0)
    p_explore.add_argument("--json", metavar="PATH", default=None,
                           help="write the frontier artifact as JSON")
    p_explore.add_argument("--timeout", type=float, default=None,
                           help="per-job wall-clock timeout in seconds")
    p_explore.add_argument("--retries", type=_non_negative_int, default=1,
                           help="re-executions for crashed/failed jobs "
                                "(default: 1)")
    _add_runner_options(p_explore)
    p_explore.set_defaults(func=_cmd_explore)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the on-disk result cache",
    )
    p_cache.add_argument("--stats", action="store_true",
                         help="also print the per-app, per-version entry "
                              "breakdown from the lake catalog")
    p_cache.add_argument("--prune", action="store_true",
                         help="drop entries written by other repro versions")
    p_cache.add_argument("--cache-dir", default=None,
                         help="result-cache root (default: ~/.cache/repro-runner)")
    p_cache.set_defaults(func=_cmd_cache)

    p_lake = sub.add_parser(
        "lake",
        help="cross-run analytics over the cached result lake",
    )
    lake_sub = p_lake.add_subparsers(dest="lake_command", required=True)

    p_idx = lake_sub.add_parser(
        "index", help="rebuild (compact) the catalog by scanning the cache"
    )
    p_idx.add_argument("--cache-dir", default=None,
                       help="result-cache root (default: ~/.cache/repro-runner)")
    p_idx.set_defaults(func=_cmd_lake_index)

    p_query = lake_sub.add_parser(
        "query",
        help="aggregate cached runs: filters, group-by, RLE-native kernels",
    )
    p_query.add_argument("--where", action="append", metavar="DIM=VALUE",
                         default=None,
                         help="filter entries (repeatable), e.g. "
                              "--where workload=bbench --where seed=0")
    p_query.add_argument("--group-by", default=None, metavar="DIM[,DIM...]",
                         help="group dimensions, e.g. scheduler,version")
    p_query.add_argument("--agg", default="count", metavar="SPEC[,SPEC...]",
                         help="aggregates: count, mean:/sum:/min:/max:<metric>, "
                              "residency:little|big, freq_hist:little|big, "
                              "migrations, energy (default: count)")
    p_query.add_argument("--json", metavar="PATH", default=None,
                         help="also write the result rows as JSON")
    p_query.add_argument("--cache-dir", default=None,
                         help="result-cache root (default: ~/.cache/repro-runner)")
    p_query.set_defaults(func=_cmd_lake_query)

    p_diff = lake_sub.add_parser(
        "diff",
        help="regression-diff two code versions' entries for the same specs",
    )
    p_diff.add_argument("version_a", help="baseline version (e.g. 1.1.0)")
    p_diff.add_argument("version_b", help="candidate version (e.g. 1.2.0)")
    p_diff.add_argument("--json", metavar="PATH", default=None,
                        help="also write the structured diff as JSON")
    p_diff.add_argument("--cache-dir", default=None,
                        help="result-cache root (default: ~/.cache/repro-runner)")
    p_diff.set_defaults(func=_cmd_lake_diff)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_from_args(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
