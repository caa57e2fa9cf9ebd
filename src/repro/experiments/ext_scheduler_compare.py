"""Extension: the paper's three Section IV.A scheduling approaches, measured.

The paper taxonomizes asymmetric scheduling into efficiency-based,
parallelism-aware, and utilization-based (the deployed HMP), and argues
that for low-utilization mobile workloads the simple utilization-based
scheme captures most of the benefit.  We test that argument directly by
implementing all three:

- :class:`~repro.sched.hmp.HMPScheduler` — deployed utilization-based;
- :class:`~repro.sched.efficiency_sched.EfficiencyScheduler` — oracle
  efficiency-based (knows each task's *true* big-core speedup);
- :class:`~repro.sched.parallelism_sched.ParallelismAwareScheduler` —
  big cores for serial phases, littles for parallel ones.

Expected shape: differences are small for most apps — exactly the
paper's claim that "this simple utilization-based scheduling can
exploit the performance difference between core types effectively".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.core.study import run_app
from repro.platform.chip import exynos5422
from repro.sched.efficiency_sched import EfficiencyScheduler
from repro.sched.parallelism_sched import ParallelismAwareScheduler
from repro.experiments.common import perf_change_pct, relative_change_pct
from repro.workloads.mobile import MOBILE_APP_NAMES

ALTERNATIVES = {
    "efficiency": EfficiencyScheduler,
    "parallelism": ParallelismAwareScheduler,
}


@dataclass
class SchedulerCompareResult:
    """Per-scheduler, per-app deltas relative to utilization-based HMP.

    For backward compatibility, ``power_change_pct``/``perf_change_pct``
    expose the efficiency-based scheduler's deltas directly.
    """

    by_scheduler: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    @property
    def power_change_pct(self) -> dict[str, float]:
        return self.by_scheduler["efficiency"]["power"]

    @property
    def perf_change_pct(self) -> dict[str, float]:
        return self.by_scheduler["efficiency"]["perf"]

    def render(self) -> str:
        parts = []
        for sched_name, tables in self.by_scheduler.items():
            rows = [
                [app, tables["power"][app], tables["perf"][app]]
                for app in tables["power"]
            ]
            parts.append(render_table(
                ["app", "power change %", "perf change %"],
                rows,
                title=f"Extension: {sched_name}-based scheduler vs utilization-based HMP",
                float_fmt="{:+.2f}",
            ))
        return "\n\n".join(parts)


def run_scheduler_comparison(
    apps: list[str] | None = None, seed: int = 0
) -> SchedulerCompareResult:
    chip = exynos5422(screen_on=True)
    result = SchedulerCompareResult(
        by_scheduler={
            name: {"power": {}, "perf": {}} for name in ALTERNATIVES
        }
    )
    for app in apps or MOBILE_APP_NAMES:
        hmp = run_app(app, chip=chip, seed=seed)
        for sched_name, factory in ALTERNATIVES.items():
            alt = run_app(app, chip=chip, seed=seed, scheduler_factory=factory)
            tables = result.by_scheduler[sched_name]
            tables["power"][app] = relative_change_pct(
                alt.avg_power_mw(), hmp.avg_power_mw()
            )
            tables["perf"][app] = perf_change_pct(
                hmp.metric, alt.performance_value(), hmp.performance_value()
            )
    return result
