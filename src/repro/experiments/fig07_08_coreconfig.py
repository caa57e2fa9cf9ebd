"""Figures 7 and 8: performance and power under reduced core configurations.

Each application runs under seven configurations — L2, L4, L2+B1,
L4+B1, L2+B2, L4+B2, L2+B4 — and the baseline L4+B4.  Figure 7 reports
the performance change (latency increase for latency apps, FPS change
for FPS apps) and Figure 8 the power saving, both relative to L4+B4.

Expected shape (paper Section V.C): little-only configurations save the
most power but hurt latency badly for burst-heavy apps; a *single* big
core recovers most of the interactive performance; lightweight apps
(Angry Bird, Video Player) lose nothing even on little-only
configurations; L2+B1 and L4+B1 give the best balance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.experiments.common import perf_change_pct, relative_change_pct
from repro.platform.chip import ChipSpec, CoreConfig
from repro.runner import BatchRunner, RunResult, RunSpec, resolve_chip
from repro.workloads.base import Metric
from repro.workloads.mobile import MOBILE_APP_NAMES

#: The seven reduced configurations, in the paper's presentation order.
CORE_CONFIG_LABELS = ["L2", "L4", "L2+B1", "L4+B1", "L2+B2", "L4+B2", "L2+B4"]
BASELINE_LABEL = "L4+B4"


@dataclass
class CoreConfigResult:
    """Per-app, per-config performance and power deltas vs. L4+B4."""

    # Positive = better: FPS improvement, or negated latency increase.
    perf_change_pct: dict[str, dict[str, float]] = field(default_factory=dict)
    power_saving_pct: dict[str, dict[str, float]] = field(default_factory=dict)
    metric: dict[str, Metric] = field(default_factory=dict)

    def render(self) -> str:
        headers = ["app"] + CORE_CONFIG_LABELS
        perf_rows = [
            [app] + [self.perf_change_pct[app][c] for c in CORE_CONFIG_LABELS]
            for app in self.perf_change_pct
        ]
        power_rows = [
            [app] + [self.power_saving_pct[app][c] for c in CORE_CONFIG_LABELS]
            for app in self.power_saving_pct
        ]
        fig7 = render_table(
            headers, perf_rows,
            title="Figure 7: performance change vs L4+B4 (%; negative = worse)",
            float_fmt="{:+.1f}",
        )
        fig8 = render_table(
            headers, power_rows,
            title="Figure 8: power saving vs L4+B4 (%)",
            float_fmt="{:+.1f}",
        )
        return fig7 + "\n\n" + fig8


def coreconfig_specs(
    chip: ChipSpec | str | None = None,
    apps: list[str] | None = None,
    configs: list[str] | None = None,
    seed: int = 0,
) -> list[RunSpec]:
    """The sweep's spec grid: per app, the baseline then each config."""
    # Registry ids keep cache manifests readable and worker pickles small;
    # the sweep's historical default platform is the screen-off chip.
    chip = chip if chip is not None else "exynos5422"
    labels = configs or CORE_CONFIG_LABELS
    # On a chip whose full configuration is the baseline, submit the
    # baseline as the chip's default (``core_config=None``): that is the
    # same simulation under the key every other sweep uses for it (Figs
    # 11-13 baseline), so a shared runner or cache runs it once.
    baseline = (
        None
        if resolve_chip(chip).max_config() == CoreConfig.parse(BASELINE_LABEL)
        else BASELINE_LABEL
    )
    specs = []
    # The sweep reads only scalar metrics, so nothing but a few hundred
    # bytes needs to come back from each worker.
    for app_name in apps or MOBILE_APP_NAMES:
        for label in [baseline, *labels]:
            specs.append(
                RunSpec(
                    app_name, chip=chip, core_config=label, seed=seed,
                    trace_policy="none",
                )
            )
    return specs


def run_core_config_sweep(
    chip: ChipSpec | None = None,
    apps: list[str] | None = None,
    configs: list[str] | None = None,
    seed: int = 0,
    workers: int | None = 1,
    runner: BatchRunner | None = None,
) -> CoreConfigResult:
    """Run Figures 7 and 8 (shared runs, via :mod:`repro.runner`).

    ``workers``/``runner`` parallelize and cache the grid; the default
    is the serial inline path, bit-identical to the historical loop.
    """
    labels = configs or CORE_CONFIG_LABELS
    app_names = apps or MOBILE_APP_NAMES
    specs = coreconfig_specs(chip=chip, apps=app_names, configs=labels, seed=seed)
    if runner is None:
        runner = BatchRunner(workers=workers)
    report = runner.run(specs)
    report.raise_on_failure()
    per_app = len(labels) + 1  # baseline first, then each config

    result = CoreConfigResult()
    for a, app_name in enumerate(app_names):
        rows: list[RunResult] = report.results[a * per_app : (a + 1) * per_app]
        base, runs = rows[0], rows[1:]
        base_perf = base.performance_value()
        base_power = base.avg_power_mw
        result.metric[app_name] = base.metric_enum
        result.perf_change_pct[app_name] = {}
        result.power_saving_pct[app_name] = {}
        for label, run in zip(labels, runs):
            result.perf_change_pct[app_name][label] = perf_change_pct(
                run.metric_enum, run.performance_value(), base_perf
            )
            result.power_saving_pct[app_name][label] = -relative_change_pct(
                run.avg_power_mw, base_power
            )
    return result
