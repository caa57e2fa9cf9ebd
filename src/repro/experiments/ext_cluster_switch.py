"""Extension: first-gen cluster switching vs the paper's concurrent HMP.

Section II of the paper highlights that its platform, unlike earlier
big.LITTLE products, can run big and little cores *simultaneously*.
This experiment quantifies that generational step: the same apps run
under the old all-or-nothing :class:`ClusterSwitchingScheduler` and
under the concurrent HMP scheduler.

Expected shape: apps that mix one heavy thread with light helpers
(encoder, EW2, bbench) lose under switching — the big cluster must
carry *everything* whenever any thread needs it, spending big-core
power on work a little core should absorb (or, on the little side,
starving the heavy thread).  Pure-little apps (video player) are
unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.core.study import run_app
from repro.platform.chip import exynos5422
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.experiments.common import perf_change_pct, relative_change_pct


@dataclass
class ClusterSwitchResult:
    """Per-app deltas of cluster switching relative to concurrent HMP."""

    power_change_pct: dict[str, float] = field(default_factory=dict)
    perf_change_pct: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [app, self.power_change_pct[app], self.perf_change_pct[app]]
            for app in self.power_change_pct
        ]
        return render_table(
            ["app", "power change %", "perf change %"],
            rows,
            title="Extension: first-gen cluster switching vs concurrent HMP",
            float_fmt="{:+.2f}",
        )


def run_cluster_switch_comparison(
    apps: list[str] | None = None, seed: int = 0
) -> ClusterSwitchResult:
    chip = exynos5422(screen_on=True)
    apps = apps or ["video-player", "encoder", "eternity-warrior-2", "bbench"]
    result = ClusterSwitchResult()
    for app in apps:
        hmp = run_app(app, chip=chip, seed=seed)
        switching = run_app(
            app, chip=chip, seed=seed, scheduler_factory=ClusterSwitchingScheduler
        )
        result.power_change_pct[app] = relative_change_pct(
            switching.avg_power_mw(), hmp.avg_power_mw()
        )
        result.perf_change_pct[app] = perf_change_pct(
            hmp.metric, switching.performance_value(), hmp.performance_value()
        )
    return result
