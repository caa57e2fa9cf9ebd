#!/usr/bin/env python
"""Benchmark the engine's idle fast-forward against the reference loop.

Runs a set of scenarios twice — once with ``fastpath=False`` (the
reference tick-by-tick loop) and once with the fast path enabled — and
reports wall-clock time, simulated ticks per second, and the speedup
ratio for each.  Results go to stdout and, with ``--out``, to a JSON
file (``BENCH_engine.json`` by convention; consumed by CI as a
non-blocking trend artifact).

Scenario families:

- *standby*: a 1 Hz housekeeping timer — the screen-off/background case
  the fast-forward targets; nearly the whole run is one idle span.
- low-utilization interactive apps (voice-call, video-player, browser):
  60 Hz ambient work bounds spans to a frame period, so gains are
  modest but must still be gains.
- *spec-like* CPU-bound compute: zero idle; with PR 4's busy
  steady-state fast-forward this is itself a fast-forward showcase, and
  the run doubles as a guard that eligibility probing never slows the
  hot loop.  ``spec-compute-long`` runs the same workload several times
  longer so steady-state spans dominate setup/convergence cost.
- *batch-transport*: a 16-job grid through ``BatchRunner`` under the
  three trace policies (``full`` / ``rle`` / ``none``), measuring the
  result pipeline itself — worker→parent bytes, cache footprint, warm
  reload, peak worker RSS — rather than the tick engine.
- *sweep-lockstep*: folding vs per-run — a 64-variant
  interactive-governor sweep executed per-run vs as one cohort with
  witness-certified sweep folding (``repro.runner.sweepfold``),
  cross-checked for identical scalars.  The scenario and JSON section
  keep their historical name so the regression gate reads them as
  before.
- *sweep-distributed*: the same 64-variant sweep executed through 4
  localhost ``biglittle worker`` TCP subprocesses vs the serial per-run
  runner, cross-checked against the local process-pool backend, plus a
  concurrent duplicate submission proving the coordinator's global
  dedup (zero duplicate executions).
- *lake-query*: 200 cached RLE runs queried through ``repro.lake`` —
  catalog rebuild time and group-by queries/sec, with a hard assertion
  that no query densifies a trace (``trace.materializations`` delta 0)
  and a ``trace_loads`` count of trace files the battery opened (0:
  queries fold the per-entry summaries the catalog carries).

``--compare OLD.json`` prints per-scenario deltas against a previously
written results file and is applied before ``--out`` overwrites the
baseline.  CI gates on ``scripts/check_bench_regression.py`` instead
(blocking, tolerance-based); ``--compare`` remains for eyeballing.

Usage::

    PYTHONPATH=src python scripts/bench_engine.py --quick \
        --compare BENCH_engine.json --out BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import tempfile
import time

from repro.obs.logsetup import add_verbosity_args, get_logger, setup_from_args
from repro.obs.timing import PhaseTimer
from repro.platform.perfmodel import COMPUTE_BOUND
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, Work
from repro.workloads.mobile import make_app

log = get_logger("scripts.bench_engine")


def _standby(ctx):
    while True:
        yield Work(0.002)
        yield Sleep(1.0)


def _spec_like(ctx):
    # Pure compute, never sleeps: the engine's worst case for the fast
    # path (eligibility is probed every tick and never granted).
    while True:
        yield Work(10.0)


def _install_app(name):
    def install(sim):
        make_app(name).install(sim)

    return install


def _install_task(name, behavior, count=1):
    def install(sim):
        for i in range(count):
            sim.spawn(Task(f"{name}-{i}", behavior, COMPUTE_BOUND))

    return install


def scenarios(quick: bool):
    app_s = 4.0 if quick else 12.0
    standby_s = 10.0 if quick else 60.0
    spec_s = 2.0 if quick else 6.0
    spec_long_s = 10.0 if quick else 60.0
    return [
        ("standby-1hz", standby_s, _install_task("standby", _standby)),
        ("voice-call", app_s, _install_app("voice-call")),
        ("video-player", app_s, _install_app("video-player")),
        ("browser", app_s, _install_app("browser")),
        ("spec-compute", spec_s, _install_task("spec", _spec_like, count=4)),
        # Long enough that busy steady-state spans dominate the
        # governor-convergence prologue — the headline busy-FF number.
        ("spec-compute-long", spec_long_s, _install_task("spec", _spec_like, count=4)),
    ]


def run_once(install, seconds: float, seed: int, fastpath: bool):
    timer = PhaseTimer()
    with timer.span("setup"):
        sim = Simulator(SimConfig(max_seconds=seconds, seed=seed, fastpath=fastpath))
        install(sim)
    with timer.span("run"):
        trace = sim.run()
    wall = timer.seconds("run")
    return {
        "wall_s": wall,
        "ticks": len(trace),
        "ticks_per_sec": len(trace) / wall if wall > 0 else float("inf"),
        "fastforward_ticks": sim.fastforward_ticks,
        "fastforward_spans": sim.fastforward_spans,
        "busy_fastforward_ticks": sim.busy_fastforward_ticks,
        "busy_fastforward_spans": sim.busy_fastforward_spans,
        "phases": timer.to_dict(),
    }


def bench(quick: bool, seed: int, repeats: int):
    rows = []
    for name, seconds, install in scenarios(quick):
        ref = min(
            (run_once(install, seconds, seed, False) for _ in range(repeats)),
            key=lambda r: r["wall_s"],
        )
        fast = min(
            (run_once(install, seconds, seed, True) for _ in range(repeats)),
            key=lambda r: r["wall_s"],
        )
        rows.append({
            "scenario": name,
            "sim_seconds": seconds,
            "reference": ref,
            "fastpath": fast,
            "speedup": ref["wall_s"] / fast["wall_s"],
        })
    return rows


# ---------------------------------------------------------------------------
# batch-transport scenario: the result pipeline under the three policies
# ---------------------------------------------------------------------------

#: Reductions every policy must end up providing to the parent.
_TRANSPORT_REDUCTIONS = (
    "tlp", "tlp_matrix", "residency", "efficiency", "power_summary",
)
_TRANSPORT_JOBS = 16
_TRANSPORT_WORKERS = 4
_IDLE_HEAVY_KIND = "repro.runner.benchkinds:run_idle_heavy"


def _transport_specs(policy: str, sim_seconds: float):
    from repro.runner import RunSpec

    # The "full" policy models the historical pipeline: dense traces
    # return and the parent computes the analyses itself.  "rle" and
    # "none" reduce at the source.
    reductions = () if policy == "full" else _TRANSPORT_REDUCTIONS
    return [
        RunSpec(
            "idle-heavy", kind=_IDLE_HEAVY_KIND, seed=seed,
            max_seconds=sim_seconds, trace_policy=policy,
            reductions=reductions,
        )
        for seed in range(_TRANSPORT_JOBS)
    ]


def _consume_results(policy: str, results) -> None:
    """Make every reduction value available in the parent, per policy."""
    if policy == "full":
        from repro.core.reductions import compute_reductions
        from repro.runner.spec import resolve_chip

        for run in results:
            compute_reductions(
                _TRANSPORT_REDUCTIONS, run.trace,
                resolve_chip("exynos5422-screen"), run.scalars(),
            )
    else:
        for run in results:
            for name in _TRANSPORT_REDUCTIONS:
                run.reduction(name)


def bench_batch_transport(quick: bool, sim_seconds: float | None = None):
    """Time a 16-job batch under the full / rle / none trace policies.

    Each policy runs the same idle-heavy grid (cheap to simulate, a few
    dense megabytes of trace per job) through a 4-worker pool with a
    fresh cache, then a second, fully-cached pass.  Both passes end with
    every reduction value available in the parent, so the comparison is
    end-to-end: *full* pays dense transport + dense storage +
    parent-side analysis; *rle*/*none* reduce in-worker and ship
    (almost) nothing.  ``peak_worker_rss_kb`` is ``ru_maxrss`` of dead
    children, which is **cumulative** across policies — hence the
    smallest-footprint-first policy order.
    """
    from repro.runner import BatchRunner, ResultCache

    if sim_seconds is None:
        sim_seconds = 120.0 if quick else 480.0
    policies = {}
    for policy in ("none", "rle", "full"):
        specs = _transport_specs(policy, sim_seconds)
        with tempfile.TemporaryDirectory(prefix="bench-transport-") as root:
            cache = ResultCache(root=root)
            t0 = time.monotonic()
            report = BatchRunner(workers=_TRANSPORT_WORKERS, cache=cache).run(specs)
            report.raise_on_failure()
            _consume_results(policy, report.results)
            cold_s = time.monotonic() - t0
            result_pickle_bytes = sum(
                len(pickle.dumps(r)) for r in report.results
            )
            t0 = time.monotonic()
            warm_report = BatchRunner(
                workers=_TRANSPORT_WORKERS, cache=cache
            ).run(specs)
            warm_report.raise_on_failure()
            _consume_results(policy, warm_report.results)
            warm_s = time.monotonic() - t0
            policies[policy] = {
                "cold_wall_s": cold_s,
                "warm_wall_s": warm_s,
                "cache_hits_warm": warm_report.cache_hits,
                "transport_bytes": report.transport_bytes,
                "result_pickle_bytes": result_pickle_bytes,
                "cache_bytes_written": cache.stats.bytes_written,
                "peak_worker_rss_kb": resource.getrusage(
                    resource.RUSAGE_CHILDREN
                ).ru_maxrss,
            }
    full = policies["full"]
    for name, row in policies.items():
        row["speedup_vs_full"] = full["cold_wall_s"] / row["cold_wall_s"]
        row["bytes_reduction_vs_full"] = (
            full["result_pickle_bytes"] / max(1, row["result_pickle_bytes"])
        )
    return {
        "n_jobs": _TRANSPORT_JOBS,
        "workers": _TRANSPORT_WORKERS,
        "sim_seconds": sim_seconds,
        "reductions": list(_TRANSPORT_REDUCTIONS),
        "policies": policies,
    }


# ---------------------------------------------------------------------------
# sweep-lockstep scenario: sweep folding vs per-run execution
# ---------------------------------------------------------------------------

_SWEEP_VARIANTS = 64


def _sweep_specs(sim_seconds: float):
    from dataclasses import replace as dc_replace

    from repro.runner import RunSpec
    from repro.sched.params import baseline_config

    # A 64-variant interactive-governor sweep of one app: hold_ms
    # (the governor's min_sample_time, explore's ``gov_hold_ms`` axis)
    # at 2 ms resolution around the 80 ms baseline.  The variants differ
    # only in hold_ms, which is comparison-only, so the grid is one fold
    # family: it runs as one cohort and folds onto witness-certified
    # class representatives (:mod:`repro.runner.sweepfold`).
    base = baseline_config()
    specs = []
    for hold in range(34, 34 + 2 * _SWEEP_VARIANTS, 2):
        sched = dc_replace(
            base,
            name=f"gov-hold-{hold}",
            governor=dc_replace(base.governor, hold_ms=hold),
        )
        specs.append(
            RunSpec(
                "pdf-reader", scheduler=sched, seed=7,
                max_seconds=sim_seconds, trace_policy="none",
                reductions=("power_summary",),
            )
        )
    return specs


def bench_sweep_lockstep(quick: bool):
    """Time a 64-variant sweep per-run vs folded in one cohort.

    Both passes use a serial single-worker runner with no cache, so the
    comparison isolates sweep folding itself: per-run simulates every
    variant; the folded pass simulates only class representatives and
    copies their results to the variants their witnesses cover.  The
    ``batched_*`` keys hold the folded pass.  Scalars are cross-checked
    so the speedup is only reported for bit-identical results.
    """
    from repro.runner import BatchRunner

    sim_seconds = 1.0 if quick else 4.0
    specs = _sweep_specs(sim_seconds)

    t0 = time.monotonic()
    per_run = BatchRunner(workers=1, cohorts=False).run(specs)
    per_run.raise_on_failure()
    per_run_s = time.monotonic() - t0

    t0 = time.monotonic()
    batched = BatchRunner(workers=1, cohorts=True).run(specs)
    batched.raise_on_failure()
    batched_s = time.monotonic() - t0

    mismatches = sum(
        1 for a, b in zip(per_run.results, batched.results)
        if a.scalars() != b.scalars()
    )
    n = len(specs)
    return {
        "n_variants": n,
        "sim_seconds": sim_seconds,
        "per_run_wall_s": per_run_s,
        "batched_wall_s": batched_s,
        "speedup": per_run_s / batched_s if batched_s > 0 else float("inf"),
        "per_run_variants_per_sec": n / per_run_s if per_run_s > 0 else float("inf"),
        "batched_variants_per_sec": n / batched_s if batched_s > 0 else float("inf"),
        "scalar_mismatches": mismatches,
    }


# ---------------------------------------------------------------------------
# sweep-distributed scenario: TCP workers vs serial execution
# ---------------------------------------------------------------------------

_DIST_WORKERS = 4


def bench_sweep_distributed(quick: bool):
    """Time the 64-variant sweep through 4 localhost TCP workers.

    Workers are spawned as real ``biglittle worker`` subprocesses
    (``--no-cache``, so every execution is a genuine simulation) before
    the clock starts; the serial baseline is the per-run single-worker
    runner.  The distributed pass ships the sweep as one cohort — a fold
    family travels whole, so the speedup is folding minus wire
    overhead, not parallelism.  Results are cross-checked
    against the local process-pool backend, and a second, *concurrent
    duplicate* submission of the whole sweep from two runners sharing
    the coordinator checks global dedup: it must add exactly one more
    execution of the job, never two (``duplicate_executions`` = specs
    executed beyond the one job, must be 0).
    """
    import os
    import subprocess
    import threading

    from repro.dist import Coordinator, DistExecutor
    from repro.runner import BatchRunner

    sim_seconds = 1.0 if quick else 4.0
    specs = _sweep_specs(sim_seconds)
    n = len(specs)

    t0 = time.monotonic()
    serial = BatchRunner(workers=1, cohorts=False).run(specs)
    serial.raise_on_failure()
    serial_s = time.monotonic() - t0

    pool = BatchRunner(
        workers=_DIST_WORKERS, cohorts=True, executor="pool"
    ).run(specs)
    pool.raise_on_failure()

    coord = Coordinator().start()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--connect", coord.endpoint, "--no-cache",
             "--id", f"bench-w{i}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        for i in range(_DIST_WORKERS)
    ]
    try:
        if coord.wait_for_workers(_DIST_WORKERS, timeout_s=120) < _DIST_WORKERS:
            raise RuntimeError("bench workers failed to connect")

        t0 = time.monotonic()
        dist = BatchRunner(cohorts=True, executor=DistExecutor(coord)).run(specs)
        dist.raise_on_failure()
        dist_s = time.monotonic() - t0
        mismatches = sum(
            1 for a, b in zip(pool.results, dist.results)
            if a.scalars() != b.scalars()
        )

        # Concurrent duplicate sweep: two runners, one coordinator, one
        # execution.  Each runner submits its (identical) cohort group
        # up-front, so the second attaches to the first's in-flight job.
        before = coord.stats()
        reports: list = [None, None]

        def _run(slot: int) -> None:
            report = BatchRunner(
                cohorts=True, executor=DistExecutor(coord)
            ).run(specs)
            report.raise_on_failure()
            reports[slot] = report

        threads = [
            threading.Thread(target=_run, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        after = coord.stats()
        dedup_specs = (
            after.get("dist.dedup_specs", 0) - before.get("dist.dedup_specs", 0)
        )
        executed_delta = (
            after.get("dist.specs_executed", 0)
            - before.get("dist.specs_executed", 0)
        )
        duplicate_executions = executed_delta - n
        mismatches += sum(
            1 for a, b in zip(reports[0].results, reports[1].results)
            if a.scalars() != b.scalars()
        )
        stats = coord.stats()
    finally:
        coord.shutdown()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()

    return {
        "n_specs": n,
        "sim_seconds": sim_seconds,
        "workers": _DIST_WORKERS,
        "serial_wall_s": serial_s,
        "dist_wall_s": dist_s,
        "speedup": serial_s / dist_s if dist_s > 0 else float("inf"),
        "serial_specs_per_sec": n / serial_s if serial_s > 0 else float("inf"),
        "dist_specs_per_sec": n / dist_s if dist_s > 0 else float("inf"),
        "scalar_mismatches": mismatches,
        "wire_bytes_out": stats.get("dist.bytes_out", 0),
        "wire_bytes_in": stats.get("dist.bytes_in", 0),
        "dedup_specs": dedup_specs,
        "duplicate_executions": duplicate_executions,
    }


# ---------------------------------------------------------------------------
# explore-small scenario: design-space exploration throughput
# ---------------------------------------------------------------------------


def bench_explore_small(quick: bool):
    """Time a small grid-search explore study, cold and fully cached.

    Tracks the exploration subsystem's end-to-end throughput in design
    points per second — lowering, batch execution with in-worker
    reductions, objective folding, and frontier bookkeeping — not the
    tick engine.  The warm pass replays the identical study against the
    same cache, so its points/sec is the orchestration-overhead ceiling.
    """
    from repro.explore import DesignSpace, ExploreStudy, GridSampler
    from repro.runner import BatchRunner, ResultCache

    horizon_s = 1.0 if quick else 4.0
    space = DesignSpace({
        "little_cores": (2, 4),
        "big_cores": (0, 1, 2),
        "hmp_up": (550, 700),
        "workloads": (("browser",),),
    })

    def run_study(cache):
        study = ExploreStudy(
            space, GridSampler(),
            runner=BatchRunner(workers=2, cache=cache, cohorts=True),
            full_horizon_s=horizon_s,
        )
        return study.run()

    with tempfile.TemporaryDirectory(prefix="bench-explore-") as root:
        cache = ResultCache(root=root)
        cold = run_study(cache)
        warm = run_study(cache)
    n = len(cold.evaluations)
    return {
        "n_points": n,
        "full_horizon_s": horizon_s,
        "frontier_size": len(cold.frontier()),
        "hypervolume": cold.hypervolume(),
        "cold_wall_s": cold.wall_s,
        "warm_wall_s": warm.wall_s,
        "cold_points_per_sec": n / cold.wall_s if cold.wall_s > 0 else float("inf"),
        "warm_points_per_sec": n / warm.wall_s if warm.wall_s > 0 else float("inf"),
        "warm_cache_hits": warm.cache_hits,
    }


# ---------------------------------------------------------------------------
# lake-query scenario: cross-run analytics over cached RLE traces
# ---------------------------------------------------------------------------

_LAKE_RUNS = 200


def bench_lake_query(quick: bool):
    """Time the trace lake over >=200 cached RLE runs.

    Populates a fresh cache with ``_LAKE_RUNS`` idle-heavy runs under the
    ``rle`` trace policy, then measures (a) a full catalog rebuild (the
    cache-tree scan, i.e. the recovery path — incremental appends are
    free) and (b) a battery of group-by queries exercising every
    RLE-native kernel.  The ``trace.materializations`` counter is
    snapshotted around the query pass and its delta **must be zero** —
    the lake's core claim is that cross-run analytics never densify a
    trace, and this bench enforces it where the numbers are produced.
    ``trace_loads`` counts trace files the battery opened; every entry
    here was stored with its ``trace_summary``, so it must be zero.
    """
    from repro.lake import Catalog, LakeQuery
    from repro.obs.metrics import global_metrics
    from repro.runner import BatchRunner, ResultCache, RunSpec

    sim_seconds = 10.0 if quick else 30.0
    specs = [
        RunSpec(
            "idle-heavy", kind=_IDLE_HEAVY_KIND, seed=seed,
            max_seconds=sim_seconds, trace_policy="rle",
        )
        for seed in range(_LAKE_RUNS)
    ]
    with tempfile.TemporaryDirectory(prefix="bench-lake-") as root:
        cache = ResultCache(root=root)
        t0 = time.monotonic()
        report = BatchRunner(workers=_TRANSPORT_WORKERS, cache=cache).run(specs)
        report.raise_on_failure()
        populate_s = time.monotonic() - t0

        catalog = Catalog(root=root)
        t0 = time.monotonic()
        entries = catalog.rebuild()
        catalog_build_s = time.monotonic() - t0

        queries = [
            LakeQuery(catalog).group_by("workload").agg("count", "residency:little"),
            LakeQuery(catalog).group_by("workload").agg("residency:big"),
            LakeQuery(catalog).group_by("workload").agg("freq_hist:little"),
            LakeQuery(catalog).group_by("workload").agg("freq_hist:big"),
            LakeQuery(catalog).group_by("workload").agg("migrations"),
            LakeQuery(catalog).group_by("workload").agg("energy"),
            LakeQuery(catalog).where(seed=0).agg("count", "mean:avg_power_mw"),
            LakeQuery(catalog).group_by("seed").agg("sum:energy_mj"),
        ]
        reg = global_metrics()
        mat_before = reg.counter("trace.materializations").value
        loads_before = reg.counter("lake.query.trace_loads").value
        t0 = time.monotonic()
        for query in queries:
            query.run()
        queries_wall_s = time.monotonic() - t0
        materializations = reg.counter("trace.materializations").value - mat_before
        trace_loads = reg.counter("lake.query.trace_loads").value - loads_before
    if materializations:
        raise AssertionError(
            f"lake-query densified {materializations} traces; the RLE "
            f"kernels must never call to_trace()"
        )
    return {
        "n_runs": _LAKE_RUNS,
        "sim_seconds": sim_seconds,
        "workers": _TRANSPORT_WORKERS,
        "populate_wall_s": populate_s,
        "entries": len(entries),
        "catalog_build_s": catalog_build_s,
        "n_queries": len(queries),
        "queries_wall_s": queries_wall_s,
        "queries_per_sec": (
            len(queries) / queries_wall_s if queries_wall_s > 0 else float("inf")
        ),
        "materializations": materializations,
        "trace_loads": trace_loads,
    }


def compare(rows, baseline_path: str) -> None:
    """Print per-scenario deltas against a previous results JSON.

    Informational only (CI runs it non-blocking): wall-clock numbers
    move with runner hardware, so the deltas are a trend signal, not a
    gate.  Scenarios present on only one side are flagged rather than
    failing.
    """
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"\ncompare: cannot read baseline {baseline_path!r}: {exc}")
        return
    old_rows = {r["scenario"]: r for r in baseline.get("scenarios", [])}
    print(f"\nvs {baseline_path} (quick={baseline.get('quick')}, "
          f"seed={baseline.get('seed')}):")
    header = (f"{'scenario':<18} {'speedup old→new':>18} "
              f"{'ticks/s old→new':>24} {'delta':>8}")
    print(header)
    print("-" * len(header))
    for row in rows:
        old = old_rows.pop(row["scenario"], None)
        if old is None:
            print(f"{row['scenario']:<18} {'(new scenario)':>18}")
            continue
        new_tps = row["fastpath"]["ticks_per_sec"]
        old_tps = old["fastpath"]["ticks_per_sec"]
        delta = (new_tps / old_tps - 1.0) * 100.0 if old_tps else float("inf")
        print(f"{row['scenario']:<18} "
              f"{old['speedup']:>7.2f}x → {row['speedup']:>6.2f}x "
              f"{old_tps:>11.0f} → {new_tps:>10.0f} {delta:>+7.1f}%")
    for name in old_rows:
        print(f"{name:<18} {'(removed scenario)':>18}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short runs for CI (seconds instead of minutes)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per path; best is kept")
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write results JSON (e.g. BENCH_engine.json)")
    parser.add_argument("--compare", metavar="PATH", default=None,
                        help="print per-scenario deltas vs a previous "
                             "results JSON (read before --out overwrites it)")
    add_verbosity_args(parser)
    args = parser.parse_args(argv)
    setup_from_args(args)

    rows = bench(args.quick, args.seed, args.repeats)

    header = (f"{'scenario':<18} {'ref s':>8} {'fast s':>8} {'speedup':>8} "
              f"{'fast ticks/s':>13} {'ff ticks':>9} {'busy ff':>9}")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['scenario']:<18} {row['reference']['wall_s']:>8.3f} "
              f"{row['fastpath']['wall_s']:>8.3f} {row['speedup']:>7.2f}x "
              f"{row['fastpath']['ticks_per_sec']:>13.0f} "
              f"{row['fastpath']['fastforward_ticks']:>9} "
              f"{row['fastpath']['busy_fastforward_ticks']:>9}")

    best = max(rows, key=lambda r: r["speedup"])
    worst = min(rows, key=lambda r: r["speedup"])
    print(f"\nbest: {best['scenario']} {best['speedup']:.2f}x; "
          f"worst: {worst['scenario']} {worst['speedup']:.2f}x")

    transport = bench_batch_transport(args.quick)
    t_header = (f"{'policy':<8} {'cold s':>8} {'warm s':>8} {'vs full':>8} "
                f"{'shipped MB':>11} {'bytes red.':>11} {'rss MB':>8}")
    print(f"\nbatch-transport ({transport['n_jobs']} jobs x "
          f"{transport['sim_seconds']:.0f}s sim, "
          f"{transport['workers']} workers):")
    print(t_header)
    print("-" * len(t_header))
    for name in ("full", "rle", "none"):
        row = transport["policies"][name]
        print(f"{name:<8} {row['cold_wall_s']:>8.2f} {row['warm_wall_s']:>8.2f} "
              f"{row['speedup_vs_full']:>7.2f}x "
              f"{row['result_pickle_bytes'] / 1e6:>11.2f} "
              f"{row['bytes_reduction_vs_full']:>10.0f}x "
              f"{row['peak_worker_rss_kb'] / 1024:>8.0f}")

    sweep = bench_sweep_lockstep(args.quick)
    print(f"\nsweep-lockstep ({sweep['n_variants']} variants x "
          f"{sweep['sim_seconds']:.0f}s sim, serial runner): "
          f"per-run {sweep['per_run_wall_s']:.2f}s "
          f"({sweep['per_run_variants_per_sec']:.1f} var/s), "
          f"folded {sweep['batched_wall_s']:.2f}s "
          f"({sweep['batched_variants_per_sec']:.1f} var/s), "
          f"speedup {sweep['speedup']:.2f}x, "
          f"mismatches {sweep['scalar_mismatches']}")

    dist = bench_sweep_distributed(args.quick)
    print(f"\nsweep-distributed ({dist['n_specs']} specs x "
          f"{dist['sim_seconds']:.0f}s sim, {dist['workers']} TCP workers): "
          f"serial {dist['serial_wall_s']:.2f}s "
          f"({dist['serial_specs_per_sec']:.1f} specs/s), "
          f"distributed {dist['dist_wall_s']:.2f}s "
          f"({dist['dist_specs_per_sec']:.1f} specs/s), "
          f"speedup {dist['speedup']:.2f}x, "
          f"wire {dist['wire_bytes_out'] + dist['wire_bytes_in']} B, "
          f"dedup {dist['dedup_specs']} specs, "
          f"{dist['duplicate_executions']} duplicate executions, "
          f"mismatches {dist['scalar_mismatches']}")

    explore = bench_explore_small(args.quick)
    print(f"\nexplore-small ({explore['n_points']} points x "
          f"{explore['full_horizon_s']:.0f}s horizon, grid sampler): "
          f"cold {explore['cold_points_per_sec']:.1f} pts/s "
          f"({explore['cold_wall_s']:.2f}s), "
          f"warm {explore['warm_points_per_sec']:.1f} pts/s "
          f"({explore['warm_cache_hits']} cache hits), "
          f"frontier {explore['frontier_size']}")

    lake = bench_lake_query(args.quick)
    print(f"\nlake-query ({lake['entries']} cached runs x "
          f"{lake['sim_seconds']:.0f}s sim): "
          f"catalog rebuild {lake['catalog_build_s'] * 1e3:.0f}ms, "
          f"{lake['n_queries']} queries in {lake['queries_wall_s']:.2f}s "
          f"({lake['queries_per_sec']:.1f} q/s), "
          f"{lake['materializations']} densifications, "
          f"{lake['trace_loads']} trace loads")

    if args.compare:
        compare(rows, args.compare)

    if args.out:
        payload = {
            "quick": args.quick,
            "seed": args.seed,
            "repeats": args.repeats,
            "scenarios": rows,
            "batch_transport": transport,
            "sweep_lockstep": sweep,
            "sweep_distributed": dist,
            "explore_small": explore,
            "lake_query": lake,
            "best_speedup": best["speedup"],
            "worst_speedup": worst["speedup"],
        }
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
        log.info("json written to %s", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
