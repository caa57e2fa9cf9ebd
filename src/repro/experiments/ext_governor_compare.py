"""Extension: cross-governor comparison (interactive vs the classics).

The paper studies the interactive governor because it is what ships on
the platform.  This extension asks how much that choice matters: the
same applications run under ``performance``, ``powersave``,
``ondemand``, ``conservative``, and ``interactive``, and we report
power and performance per governor.

Expected shape: ``performance`` is the fast/expensive bound and
``powersave`` the slow/cheap bound; ``interactive`` buys most of
``performance``'s responsiveness at a fraction of its power — which is
why it shipped; ``conservative`` saves power but reacts slowly to
bursts; ``ondemand`` sits close to interactive (its max-jump is a
blunter hispeed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.report import render_table
from repro.core.study import build_app_sim, install_and_run
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.sched.governor import (
    ConservativeGovernor,
    Governor,
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
    SchedutilGovernor,
)
from repro.sched.params import baseline_config
from repro.workloads.base import Metric

GOVERNOR_FACTORIES: dict[str, Callable[[], Governor]] = {
    "performance": PerformanceGovernor,
    "interactive": lambda: InteractiveGovernor(baseline_config().governor),
    "ondemand": OndemandGovernor,
    "schedutil": SchedutilGovernor,
    "conservative": ConservativeGovernor,
    "powersave": PowersaveGovernor,
}


@dataclass
class GovernorCompareResult:
    """Per-governor, per-app power and performance."""

    power_mw: dict[str, dict[str, float]] = field(default_factory=dict)
    # latency seconds or avg fps, depending on the app's metric
    performance: dict[str, dict[str, float]] = field(default_factory=dict)
    metric: dict[str, Metric] = field(default_factory=dict)

    def governors(self) -> list[str]:
        return list(self.power_mw)

    def render(self) -> str:
        apps = list(self.metric)
        rows = []
        for gov in self.governors():
            row = [gov]
            for app in apps:
                unit = "s" if self.metric[app] is Metric.LATENCY else "fps"
                row.append(
                    f"{self.performance[gov][app]:.1f}{unit}/{self.power_mw[gov][app]:.0f}mW"
                )
            rows.append(row)
        return render_table(
            ["governor"] + apps,
            rows,
            title="Extension: governor comparison (performance / average power)",
        )


def run_governor_comparison(
    apps: list[str] | None = None, seed: int = 0
) -> GovernorCompareResult:
    chip = exynos5422(screen_on=True)
    apps = apps or ["bbench", "eternity-warrior-2", "video-player"]
    result = GovernorCompareResult()
    for gov_name, factory in GOVERNOR_FACTORIES.items():
        result.power_mw[gov_name] = {}
        result.performance[gov_name] = {}
        for app in apps:
            governors = {CoreType.LITTLE: factory(), CoreType.BIG: factory()}
            run = install_and_run(
                *build_app_sim(app, chip=chip, governors=governors, seed=seed)
            )
            result.metric[app] = run.metric
            result.power_mw[gov_name][app] = run.avg_power_mw()
            if run.metric is Metric.LATENCY:
                result.performance[gov_name][app] = run.latency_s()
            else:
                result.performance[gov_name][app] = run.avg_fps()
    return result
