"""One-call comprehensive app report: everything the toolkit knows.

Combines the characterization (TLP, matrix, residency, efficiency) with
per-task profiling, energy accounting, idle behaviour, power breakdown,
latency distribution (latency apps), and the ASCII timeline into a
single rendered report — the ``biglittle report <app>`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.energy import EnergyMetrics, energy_metrics
from repro.core.idleness import IdlenessProfile, idleness_profile
from repro.core.interactivity import LatencyDistribution, latency_distribution
from repro.core.power_breakdown import PowerBreakdown, power_breakdown
from repro.core.reductions import WARMUP_S
from repro.core.study import AppCharacterization, build_app_sim, install_and_run
from repro.core.taskstats import TaskStatsCollector
from repro.core.timeline import render_timeline
from repro.platform.chip import ChipSpec
from repro.sched.params import SchedulerConfig
from repro.workloads.base import Metric


@dataclass
class AppReport(AppCharacterization):
    """Everything measured about one run."""

    energy: EnergyMetrics
    idleness: IdlenessProfile
    breakdown: PowerBreakdown
    profiler: TaskStatsCollector
    latency_dist: Optional[LatencyDistribution]

    def render(self, timeline_width: int = 72) -> str:
        run = self.run
        parts = [f"=== {run.name} ({run.metric.value} app, {run.config_label}) ==="]
        if run.metric is Metric.LATENCY:
            perf = f"script latency {run.latency_s():.2f} s over {self.energy.units} actions"
        else:
            perf = f"{run.avg_fps():.1f} fps average, {run.min_fps():.1f} fps minimum"
        parts.append(
            f"{perf}; {run.avg_power_mw():.0f} mW average, "
            f"{self.energy.total_energy_mj / 1000:.1f} J total"
        )
        parts.append("")
        parts.append(super().render())
        parts.append("")
        parts.append(self.breakdown.render())
        parts.append("")
        parts.append(self.idleness.render())
        if self.latency_dist is not None:
            parts.append("")
            parts.append(self.latency_dist.render())
        parts.append("")
        parts.append(self.profiler.render(top=10))
        parts.append("")
        parts.append(render_timeline(run.trace, width=timeline_width))
        return "\n".join(parts)


def app_report(
    app_name: str,
    chip: Optional[ChipSpec] = None,
    scheduler: Optional[SchedulerConfig] = None,
    seed: int = 0,
) -> AppReport:
    """Run ``app_name`` once and compute the full report."""
    app, sim = build_app_sim(app_name, chip=chip, scheduler=scheduler, seed=seed)
    profiler = TaskStatsCollector.attach(sim)
    run = install_and_run(app, sim)
    chip = sim.config.chip
    steady = run.trace.trimmed(WARMUP_S)
    return AppReport.from_run(
        run,
        chip,
        energy=energy_metrics(run),
        idleness=idleness_profile(
            steady, deep_entry_ms=chip.power_model.params.deep_idle_entry_ms
        ),
        breakdown=power_breakdown(steady, chip.power_model.params),
        profiler=profiler,
        latency_dist=(
            latency_distribution(app) if app.metric is Metric.LATENCY else None
        ),
    )
