"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps public callables of each layer for the span
of a run and then restores them:

- class methods are replaced on the class that defines them;
- module functions are replaced in every loaded ``repro``/``bench``
  module that binds the original object, for example both
  ``repro.runner.spec`` and ``repro.runner.cohort`` for
  ``prepare_app_run``.

Every wrapped call records a span ``[name, start, end, parent]`` in
memory; ``write()`` saves them with the workload name.  A layer's self
time is its spans' duration minus the part covered by their child spans.
Counts that the program keeps itself come from ``global_metrics()``
deltas over the traced region.  Run the traced passes on a serial
runner, so every layer call happens in this process.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Span name -> ``module:Class.method`` or ``module:function``.
TARGETS: list[tuple[str, str]] = [
    ("experiments.fig02_03", "repro.experiments.fig02_03_spec:run_spec_comparison"),
    ("experiments.fig04", "repro.experiments.fig04_05_corecompare:run_latency_comparison"),
    ("experiments.fig05", "repro.experiments.fig04_05_corecompare:run_fps_comparison"),
    ("experiments.fig06", "repro.experiments.fig06_util_power:run_util_power"),
    ("experiments.table3_4", "repro.experiments.table3_4_tlp:run_tlp_tables"),
    ("experiments.fig09_10", "repro.experiments.fig09_10_freq:run_frequency_residency"),
    ("experiments.table5", "repro.experiments.table5_efficiency:run_efficiency_table"),
    ("experiments.fig07_08", "repro.experiments.fig07_08_coreconfig:run_core_config_sweep"),
    ("experiments.fig11_13", "repro.experiments.fig11_12_13_params:run_param_sweep"),
    ("runner.batch", "repro.runner.batch:BatchRunner.run"),
    ("runner.spec.key", "repro.runner.spec:RunSpec.key"),
    ("runner.spec.prepare", "repro.runner.spec:prepare_app_run"),
    ("runner.spec.finalize", "repro.runner.spec:finalize_result"),
    ("runner.cohort.execute", "repro.runner.cohort:execute_cohort"),
    ("runner.sweepfold.clone", "repro.runner.sweepfold:clone_result"),
    ("runner.cache.load", "repro.runner.cache:ResultCache.load"),
    ("runner.cache.store", "repro.runner.cache:ResultCache.store"),
    ("sim.engine", "repro.sim.engine:Simulator.run"),
    ("sim.batchengine", "repro.sim.batchengine:BatchSimulator.run"),
    ("core.reductions", "repro.core.reductions:compute_reductions"),
    ("sim.traceio.load", "repro.sim.traceio:load_trace_lazy"),
    ("lake.catalog.rebuild", "repro.lake.catalog:Catalog.rebuild"),
    ("lake.query", "repro.lake.query:LakeQuery.run"),
    ("lake.kernels", "repro.lake.kernels:residency_counts"),
    ("lake.kernels", "repro.lake.kernels:freq_histogram"),
    ("lake.kernels", "repro.lake.kernels:migrations"),
    ("lake.kernels", "repro.lake.kernels:cluster_energy"),
    ("explore.study", "repro.explore.study:ExploreStudy.run"),
    ("explore.lower", "repro.explore.space:lower_point"),
    ("explore.pareto", "repro.explore.pareto:pareto_indices"),
    ("explore.pareto", "repro.explore.pareto:hypervolume"),
] + [
    ("explore.sampler", f"repro.explore.samplers:{cls}.{method}")
    for cls, methods in (
        ("Sampler", ("start", "next_batch", "observe")),
        ("GridSampler", ("start", "next_batch")),
        ("RandomSampler", ("start", "next_batch")),
        ("AdaptiveSampler", ("start", "next_batch", "observe")),
    )
    for method in methods
]

ARTIFACTS = (
    "fig02_03", "fig04", "fig05", "fig06", "table3_4",
    "fig09_10", "table5", "fig07_08", "fig11_13",
)

#: Program counters read as deltas over the traced region.
COUNTERS = (
    "cache.hits", "cache.misses", "cache.corrupt", "cache.bytes_written",
    "engine.batch.lanes", "engine.batch.vector_ticks", "engine.batch.scalar_ticks",
    "engine.batch.fold.representatives", "engine.batch.fold.folded",
    "lake.catalog.appends", "lake.query.entries", "lake.kernel_runs",
    "trace.materializations", "explore.points",
)

#: A ``sim.engine`` call made inside a cohort is an evicted lane finishing.
EVICTED = "sim.batchengine.evicted"


def counter_values(names) -> dict[str, float]:
    from repro.obs.metrics import global_metrics

    registry = global_metrics()
    return {name: registry.counter(name).value for name in names}


def resolve(target: str) -> tuple[Any, str]:
    """``module:Class.attr`` -> (class, attr); ``module:func`` -> (module, func)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._counters_before: dict[str, float] = {}
        self._counters_after: dict[str, float] = {}

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        after = {
            "sim.engine": self._count_ticks,
            "runner.batch": self._count_specs,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if name == "sim.engine" and self._inside("sim.batchengine"):
                span_name = EVICTED
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None and span_name == name:
                after(args, result)
            return result

        return traced

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _count_ticks(self, args, trace) -> None:
        """Tick paths of one solo run, from the simulator's public counters."""
        sim = args[0]
        self.counts["sim.engine.ticks.reference"] += len(trace) - sim.fastforward_ticks
        self.counts["sim.engine.ticks.idle_ff"] += (
            sim.fastforward_ticks - sim.busy_fastforward_ticks
        )
        self.counts["sim.engine.ticks.busy_ff"] += sim.busy_fastforward_ticks

    def _count_specs(self, args, report) -> None:
        self.counts["runner.batch.specs"] += report.n_jobs

    # -- install / restore -------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the body of the ``with`` block, then restore."""
        replaced: list[tuple[Any, str, Any]] = []
        try:
            for name, target in TARGETS:
                owner, attr = resolve(target)
                original = vars(owner)[attr]
                owners = [owner] if isinstance(owner, type) else [
                    module for module in list(sys.modules.values())
                    if getattr(module, "__name__", "").split(".")[0] in ("repro", "bench")
                    and vars(module).get(attr) is original
                ]
                wrapper = self.wrap(name, original)
                for bound in owners:
                    replaced.append((bound, attr, original))
                    setattr(bound, attr, wrapper)
            self._counters_before = counter_values(COUNTERS)
            yield self
        finally:
            self._counters_after = counter_values(COUNTERS)
            for bound, attr, original in reversed(replaced):
                setattr(bound, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self, reps: int) -> dict[str, float]:
        """Per-layer metrics for one repetition (totals divided by ``reps``)."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        wall = 0.0
        for (name, start, end, parent), own in zip(self.spans, self.self_times()):
            self_s[name] += own
            calls[name] += 1
            if parent < 0:
                wall += end - start
        delta = {
            name: self._counters_after[name] - self._counters_before[name]
            for name in COUNTERS
        }
        reps = max(1, reps)
        roots = self_s["bench.pass1"] + self_s["bench.pass2"]
        engine_ticks = sum(
            self.counts[f"sim.engine.ticks.{path}"]
            for path in ("reference", "idle_ff", "busy_ff")
        )
        batch_s = self_s["sim.batchengine"] + self_s[EVICTED]
        lane_ticks = delta["engine.batch.vector_ticks"] + delta["engine.batch.scalar_ticks"]
        folded = delta["engine.batch.fold.folded"]
        fold_outcomes = delta["engine.batch.fold.representatives"] + folded
        total = {
            **{f"experiments.{a}.s": self_s[f"experiments.{a}"] for a in ARTIFACTS},
            "runner.batch.calls": calls["runner.batch"],
            "runner.batch.self_s": self_s["runner.batch"],
            "runner.batch.specs": self.counts["runner.batch.specs"],
            "runner.spec.key.calls": calls["runner.spec.key"],
            "runner.spec.key.s": self_s["runner.spec.key"],
            "runner.spec.prepare.s": self_s["runner.spec.prepare"],
            "runner.spec.finalize.s": self_s["runner.spec.finalize"],
            "runner.cohort.groups": calls["runner.cohort.execute"],
            "runner.cohort.execute.s": self_s["runner.cohort.execute"],
            "runner.sweepfold.representatives": delta["engine.batch.fold.representatives"],
            "runner.sweepfold.folded": folded,
            "runner.sweepfold.clone.s": self_s["runner.sweepfold.clone"],
            "sim.engine.calls": calls["sim.engine"],
            "sim.engine.s": self_s["sim.engine"],
            "sim.engine.ticks.reference": self.counts["sim.engine.ticks.reference"],
            "sim.engine.ticks.idle_ff": self.counts["sim.engine.ticks.idle_ff"],
            "sim.engine.ticks.busy_ff": self.counts["sim.engine.ticks.busy_ff"],
            "sim.batchengine.calls": calls["sim.batchengine"],
            "sim.batchengine.s": batch_s,
            "sim.batchengine.lanes": delta["engine.batch.lanes"],
            "sim.batchengine.evicted": calls[EVICTED],
            "sim.batchengine.vector_ticks": delta["engine.batch.vector_ticks"],
            "sim.batchengine.scalar_ticks": delta["engine.batch.scalar_ticks"],
            "core.reductions.calls": calls["core.reductions"],
            "core.reductions.s": self_s["core.reductions"],
            "runner.cache.load.calls": calls["runner.cache.load"],
            "runner.cache.load.s": self_s["runner.cache.load"],
            "runner.cache.store.calls": calls["runner.cache.store"],
            "runner.cache.store.s": self_s["runner.cache.store"],
            "runner.cache.hits": delta["cache.hits"],
            "runner.cache.misses": delta["cache.misses"],
            "runner.cache.corrupt": delta["cache.corrupt"],
            "runner.cache.bytes_written": delta["cache.bytes_written"],
            "sim.traceio.load.calls": calls["sim.traceio.load"],
            "sim.traceio.load.s": self_s["sim.traceio.load"],
            "lake.catalog.rebuild_s": self_s["lake.catalog.rebuild"],
            "lake.catalog.appends": delta["lake.catalog.appends"],
            "lake.query.s": self_s["lake.query"],
            "lake.query.entries": delta["lake.query.entries"],
            "lake.kernels.s": self_s["lake.kernels"],
            "lake.kernel_runs": delta["lake.kernel_runs"],
            "trace.materializations": delta["trace.materializations"],
            "explore.study.s": self_s["explore.study"],
            "explore.lower.s": self_s["explore.lower"],
            "explore.pareto.s": self_s["explore.pareto"],
            "explore.sampler.s": self_s["explore.sampler"],
            "explore.points": delta["explore.points"],
            "trace.wall_s": wall,
            "trace.spans": len(self.spans),
        }
        metrics = {name: value / reps for name, value in total.items()}
        metrics.update({
            "runner.sweepfold.fold_ratio": folded / fold_outcomes if fold_outcomes else 0.0,
            "sim.engine.ticks_per_s": (
                engine_ticks / self_s["sim.engine"] if self_s["sim.engine"] else 0.0
            ),
            "sim.batchengine.lane_ticks_per_s": lane_ticks / batch_s if batch_s else 0.0,
            "trace.coverage": 1.0 - roots / wall if wall else 0.0,
            "trace.overhead_frac": (
                call_overhead_s() * len(self.spans) / wall if wall else 0.0
            ),
        })
        return metrics

    def write(self, path: str, workload: str) -> None:
        t0 = min((span[1] for span in self.spans), default=0.0)
        with open(path, "w") as fh:
            json.dump({
                "workload": workload,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [
                    [name, round(start - t0, 7), round(end - t0, 7), parent]
                    for name, start, end, parent in self.spans
                ],
            }, fh)


def call_overhead_s(calls: int = 20000) -> float:
    """Calibrated cost a wrapper adds to one call."""

    def noop() -> None:
        pass

    wrapped = Tracer().wrap("calibration", noop)
    extra = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        extra.append(time.perf_counter() - t0 - bare)
    return max(0.0, statistics.median(extra) / calls)
