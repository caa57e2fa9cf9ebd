"""The benchmark's four workloads, each built from one seed.

Every workload drives the program through its public entry points only:
``repro.experiments``, ``repro.runner``, ``repro.explore`` and
``repro.lake``.  A repetition is two timed passes.  For ``paper`` and
``explore``, pass 1 starts from an empty result cache and pass 2 repeats
it warm.  For ``lake``, pass 1 rebuilds the catalog and runs the query
battery, and pass 2 runs the battery again.  For ``sweep``, which has no
cache, pass 1 is a lockstep variant grid with nothing to fold and pass 2
a governor grid that sweep folding collapses.

A pass returns ``{output name: digest}``.  The harness checks that a
repeating pass 2 equals pass 1 and that every repetition agrees; at the
seeds pinned in ``bench/expected/`` it also checks the digests themselves.
``oracle()`` runs untimed checks against an independent path of the
program: per-run execution for results produced by lockstep cohorts,
sweep folding or the cache, dense recomputation for the lake kernels, and
the committed ``results/`` renders at the paper's seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import replace
from typing import Callable

from repro.experiments.fig02_03_spec import run_spec_comparison
from repro.experiments.fig04_05_corecompare import (
    run_fps_comparison,
    run_latency_comparison,
)
from repro.experiments.fig06_util_power import run_util_power
from repro.experiments.fig07_08_coreconfig import run_core_config_sweep
from repro.experiments.fig09_10_freq import run_frequency_residency
from repro.experiments.fig11_12_13_params import param_sweep_specs, run_param_sweep
from repro.experiments.table3_4_tlp import run_tlp_tables
from repro.experiments.table5_efficiency import run_efficiency_table
from repro.explore import ExploreStudy, lower_point, make_sampler, reference_space
from repro.explore.study import point_objectives
from repro.lake import Catalog, LakeQuery
from repro.lake.kernels import (
    cluster_energy,
    dense_cluster_energy,
    dense_freq_histogram,
    dense_migrations,
    freq_histogram,
    migrations,
)
from repro.obs.metrics import global_metrics
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.runner import BatchRunner, ResultCache, RunSpec, execute_spec
from repro.sched.params import baseline_config
from repro.sim.traceio import load_trace_lazy

#: Pool size for the lake corpus fill and for the one pooled repetition
#: of a traced run; the timed passes run inline (see ``measure.py``).
POOL_WORKERS = min(2, os.cpu_count() or 1)

#: ``results/`` holds the renders of ``scripts/collect_results.py`` at this seed.
PAPER_SEED = 7

#: The paper workload runs the artifacts that sweep the 12 apps over a
#: subset: one latency app and one FPS app for the app tables, the
#: latency app alone for the two grid sweeps.
PAPER_LATENCY_APP = "photo-editor"
PAPER_FPS_APP = "video-player"
PAPER_APPS = [PAPER_LATENCY_APP, PAPER_FPS_APP]
PAPER_SWEEP_APPS = [PAPER_LATENCY_APP]
#: Artifacts the paper workload runs at the paper's full scale; at
#: ``PAPER_SEED`` their renders must equal the committed ``results/``.
PAPER_FULL_SCALE = ("fig02_03", "fig06")

#: Sweep pass 1: the Fig 11-13 variant grid of one app.
SWEEP_PARAM_APPS = ["pdf-reader"]
#: Sweep pass 2: a governor grid where sweep folding does the work.
FOLD_APPS = ("pdf-reader", "video-player")
FOLD_DOWN_THRESHOLDS = (0.40, 0.50)
FOLD_HOLDS_MS = range(34, 98, 2)
FOLD_HORIZON_S = 4.0

EXPLORE_MAX_POINTS = 64
EXPLORE_HORIZON_S = 1.0

LAKE_RUNS = 200
LAKE_SIM_SECONDS = 30.0
IDLE_HEAVY_KIND = "repro.runner.benchkinds:run_idle_heavy"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def json_digest(obj) -> str:
    return digest(json.dumps(obj, sort_keys=True, separators=(",", ":")))


class Ops:
    """Operations attempted and failed: specs submitted plus output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def on_event(self, event) -> None:
        """``BatchRunner`` event callback counting submitted and failed specs."""
        if event.event == "batch_start":
            self.attempted += event.extra["n_jobs"]
        elif event.event == "job_failed":
            self.failed += 1

    def count(self, n: int) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.mismatches.append(name)


class Workload:
    """Set-up in ``__init__``; ``pass1()`` and ``pass2()`` are the timed passes.

    The default passes suit a workload with a result cache: pass 1 starts
    from an empty cache and pass 2 repeats ``run_pass()`` warm.
    """

    name = ""
    #: Pass 2 repeats pass 1's requests, so its outputs must be equal.
    repeats = True

    def __init__(self, seed: int, workdir: str, ops: Ops):
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        #: Worker processes of the runners the passes create.
        self.workers = 1
        self.cache: ResultCache | None = None

    def fresh_cache(self) -> None:
        """Replace the current cache with an empty one."""
        if self.cache is not None:
            shutil.rmtree(self.cache.root, ignore_errors=True)
        self.cache = ResultCache(
            root=tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.workdir)
        )

    def runner(self, **kwargs) -> BatchRunner:
        return BatchRunner(
            workers=self.workers, cache=self.cache,
            on_event=self.ops.on_event, **kwargs,
        )

    def run_pass(self) -> dict[str, str]:
        raise NotImplementedError

    def pass1(self) -> dict[str, str]:
        self.fresh_cache()
        return self.run_pass()

    def pass2(self) -> dict[str, str]:
        return self.run_pass()

    def oracle(self, outputs: dict[str, str]) -> None:
        """Untimed checks of ``outputs`` against an independent path."""


class Paper(Workload):
    name = "paper"

    def __init__(self, seed: int, workdir: str, ops: Ops):
        super().__init__(seed, workdir, ops)
        chip_on = exynos5422(screen_on=True)
        self.artifacts: list[tuple[str, Callable]] = [
            ("fig02_03", lambda r: run_spec_comparison(seed=seed)),
            ("fig04", lambda r: run_latency_comparison(
                chip=chip_on, seed=seed, apps=[PAPER_LATENCY_APP])),
            ("fig05", lambda r: run_fps_comparison(
                chip=chip_on, seed=seed, apps=[PAPER_FPS_APP])),
            ("fig06", lambda r: run_util_power(seed=seed)),
            ("table3_4", lambda r: run_tlp_tables(
                apps=PAPER_APPS, seed=seed, runner=r)),
            ("fig09_10", lambda r: run_frequency_residency(
                apps=PAPER_APPS, seed=seed, runner=r)),
            ("table5", lambda r: run_efficiency_table(
                apps=PAPER_APPS, seed=seed, runner=r)),
            ("fig07_08", lambda r: run_core_config_sweep(
                apps=PAPER_SWEEP_APPS, seed=seed, runner=r)),
            ("fig11_13", lambda r: run_param_sweep(
                apps=PAPER_SWEEP_APPS, seed=seed, runner=r)),
        ]

    def run_pass(self) -> dict[str, str]:
        runner = self.runner()
        return {
            name: digest(artifact(runner).render() + "\n")
            for name, artifact in self.artifacts
        }

    def oracle(self, outputs: dict[str, str]) -> None:
        if self.seed != PAPER_SEED:
            return
        results = os.path.join(os.path.dirname(__file__), "..", "results")
        for name in PAPER_FULL_SCALE:
            with open(os.path.join(results, f"{name}.txt")) as fh:
                committed = digest(fh.read())
            self.ops.check(f"paper.results.{name}", outputs[name] == committed)


def fold_specs(seed: int) -> list[RunSpec]:
    """The pass-2 governor grid: apps x down_threshold x hold_ms."""
    base = baseline_config()
    specs = []
    for app in FOLD_APPS:
        for down in FOLD_DOWN_THRESHOLDS:
            for hold in FOLD_HOLDS_MS:
                sched = replace(
                    base,
                    name=f"fold-d{down:.2f}-h{hold}",
                    governor=replace(base.governor, down_threshold=down, hold_ms=hold),
                )
                specs.append(RunSpec(
                    app, scheduler=sched, seed=seed,
                    max_seconds=FOLD_HORIZON_S, trace_policy="none",
                ))
    return specs


class Sweep(Workload):
    name = "sweep"
    repeats = False

    def __init__(self, seed: int, workdir: str, ops: Ops):
        super().__init__(seed, workdir, ops)
        self.fold = fold_specs(seed)
        self.fold_results: list = []

    def pass1(self) -> dict[str, str]:
        params = run_param_sweep(
            apps=SWEEP_PARAM_APPS, seed=self.seed, runner=self.runner(cohorts=True)
        )
        return {"fig11_13": digest(params.render() + "\n")}

    def pass2(self) -> dict[str, str]:
        report = self.runner(cohorts=True).run(self.fold)
        report.raise_on_failure()
        self.fold_results = report.results
        return {"fold": json_digest([r.scalars() for r in report.results])}

    def oracle(self, outputs: dict[str, str]) -> None:
        per_run = run_param_sweep(
            apps=SWEEP_PARAM_APPS, seed=self.seed, runner=self.runner(cohorts=False)
        )
        self.ops.check(
            "sweep.per_run.fig11_13",
            digest(per_run.render() + "\n") == outputs["fig11_13"],
        )
        per_app = len(FOLD_DOWN_THRESHOLDS) * len(FOLD_HOLDS_MS)
        for i in (1, per_app // 2, per_app + 3, len(self.fold) - 1):
            self.ops.check(
                f"sweep.per_run.{self.fold[i].label()}",
                execute_spec(self.fold[i]).scalars() == self.fold_results[i].scalars(),
            )


class Explore(Workload):
    name = "explore"

    def __init__(self, seed: int, workdir: str, ops: Ops):
        super().__init__(seed, workdir, ops)
        self.space = reference_space()
        self.result = None

    def run_pass(self) -> dict[str, str]:
        study = ExploreStudy(
            self.space,
            make_sampler("adaptive", max_points=EXPLORE_MAX_POINTS),
            runner=self.runner(cohorts=True),
            full_horizon_s=EXPLORE_HORIZON_S,
            seed=self.seed,
        )
        self.result = result = study.run()
        return {
            "evaluations": str(len(result.evaluations)),
            "frontier": str(len(result.frontier())),
            "hypervolume": repr(result.hypervolume()),
            "points": json_digest([
                [e.point.key(), e.fidelity, e.objectives]
                for e in result.evaluations
            ]),
        }

    def oracle(self, outputs: dict[str, str]) -> None:
        frontier = sorted(self.result.frontier(), key=lambda e: e.objectives)
        for e in (frontier[0], frontier[-1]):
            specs = lower_point(e.point, max_seconds=EXPLORE_HORIZON_S, seed=self.seed)
            fresh = point_objectives([execute_spec(s) for s in specs])
            self.ops.check(f"explore.per_run.{e.point.key()}", fresh == e.objectives)


def query_battery(catalog: Catalog, first_seed: int) -> list[LakeQuery]:
    """Eight queries covering every RLE-native kernel and the scalar aggregates."""
    q = LakeQuery(catalog)
    return [
        q.group_by("workload").agg("count", "residency:little"),
        q.group_by("workload").agg("residency:big"),
        q.group_by("workload").agg("freq_hist:little"),
        q.group_by("workload").agg("freq_hist:big"),
        q.group_by("workload").agg("migrations"),
        q.group_by("workload").agg("energy"),
        q.where(seed=first_seed).agg("count", "mean:avg_power_mw"),
        q.group_by("seed").agg("sum:energy_mj"),
    ]


class Lake(Workload):
    name = "lake"

    def __init__(self, seed: int, workdir: str, ops: Ops):
        super().__init__(seed, workdir, ops)
        first = seed * 1000
        specs = [
            RunSpec(
                "idle-heavy", kind=IDLE_HEAVY_KIND, seed=first + i,
                max_seconds=LAKE_SIM_SECONDS, trace_policy="rle",
            )
            for i in range(LAKE_RUNS)
        ]
        self.fresh_cache()
        BatchRunner(
            workers=POOL_WORKERS, cache=self.cache, on_event=ops.on_event
        ).run(specs).raise_on_failure()
        self.catalog = Catalog(root=self.cache.root)
        self.queries = query_battery(self.catalog, first)

    def run_pass(self) -> dict[str, str]:
        densified = global_metrics().counter("trace.materializations")
        before = densified.value
        out = {
            f"q{i}": digest(query.run().to_json())
            for i, query in enumerate(self.queries)
        }
        self.ops.count(len(self.queries))
        self.ops.check("lake.materializations", densified.value == before)
        return out

    def pass1(self) -> dict[str, str]:
        self.catalog.rebuild()
        return self.run_pass()

    def oracle(self, outputs: dict[str, str]) -> None:
        entries = self.catalog.load()
        for entry in (entries[0], entries[-1]):
            rle = load_trace_lazy(os.path.join(
                self.cache.root, entry.version, entry.spec_key, "trace.rle"
            )).rle
            dense = rle.to_trace()
            ok = (
                freq_histogram(rle, CoreType.LITTLE)
                == dense_freq_histogram(dense, CoreType.LITTLE)
                and freq_histogram(rle, CoreType.BIG)
                == dense_freq_histogram(dense, CoreType.BIG)
                and migrations(rle) == dense_migrations(dense)
                and cluster_energy(rle) == dense_cluster_energy(dense)
            )
            self.ops.check(f"lake.dense.{entry.spec_key}", ok)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Paper, Sweep, Explore, Lake)
}
