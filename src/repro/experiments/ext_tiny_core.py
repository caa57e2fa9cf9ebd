"""Extension: the paper's proposed "tiny core" (Section VI.B).

The paper observes that for a large share of cycles even a little core
at its minimum 500 MHz has too much capacity ("min" state in Table V),
and proposes "another core type, tiny core, with much weaker capability
... to process such low CPU loads".

We model a tiny core as a genuinely simpler microarchitecture — a
single-issue in-order core (0.55x the little core's IPC) with a small
256 KB L2, clocked 200-800 MHz, burning roughly a third of the little
core's power at matched voltage/frequency — and evaluate a platform
whose LITTLE cluster is replaced by four tiny cores (the big cluster is
unchanged, so bursts still have somewhere to go).

Expected shape, matching the paper's argument:

- the min-state-dominated apps (video player, youtube) hold their
  frame rate on tiny cores and save system power;
- burst-heavy apps spill far more work to big cores, eroding or
  reversing the saving — tiny cores complement, not replace, the
  little cluster.

(A three-cluster platform would combine both benefits; the two-cluster
substitution isolates the tiny cores' capacity/energy question.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.core.study import run_app
from repro.platform.chip import ChipSpec, SCREEN_ON_MW, exynos5422
from repro.platform.coretypes import ClusterSpec, CoreSpec, CoreType
from repro.platform.opp import linear_voltage_table
from repro.platform.power import CorePowerParams, PowerParams
from repro.experiments.common import perf_change_pct, relative_change_pct
from repro.workloads.mobile import MOBILE_APP_NAMES


def tiny_core_spec() -> CoreSpec:
    """A single-issue, in-order core well below the Cortex-A7."""
    return CoreSpec(
        core_type=CoreType.LITTLE,
        name="tiny",
        ipc_ratio=0.55,
        issue_width=1,
        pipeline_stages="5",
        l2_kb=256,
    )


def tiny_chip(screen_on: bool = True) -> ChipSpec:
    """Exynos-5422 variant with the little cluster replaced by tiny cores."""
    base = exynos5422()
    power = PowerParams(
        screen_mw=SCREEN_ON_MW if screen_on else 0.0,
        core={
            # ~1/3 of the A7's coefficients: shorter pipeline, single
            # issue, smaller structures.
            CoreType.LITTLE: CorePowerParams(
                static_mw_per_v=14.0, dyn_mw_per_v2ghz=36.0
            ),
            CoreType.BIG: PowerParams().core[CoreType.BIG],
        },
    )
    return ChipSpec(
        name="Exynos 5422 + tiny cluster",
        little_cluster=ClusterSpec(
            spec=tiny_core_spec(),
            num_cores=base.little_cluster.num_cores,
            opp_table=linear_voltage_table(200_000, 800_000, 100_000, 0.75, 1.00),
        ),
        big_cluster=base.big_cluster,
        power_params=power,
    )


@dataclass
class TinyCoreResult:
    """Per-app power and performance effect of the tiny cluster."""

    power_saving_pct: dict[str, float] = field(default_factory=dict)
    perf_change_pct: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            [app, self.power_saving_pct[app], self.perf_change_pct[app]]
            for app in self.power_saving_pct
        ]
        return render_table(
            ["app", "power saving %", "perf change %"],
            rows,
            title="Extension: tiny cluster (4x tiny + 4x big) vs baseline (4x A7 + 4x A15)",
            float_fmt="{:+.2f}",
        )


def run_tiny_core(apps: list[str] | None = None, seed: int = 0) -> TinyCoreResult:
    baseline = exynos5422(screen_on=True)
    tiny = tiny_chip(screen_on=True)
    result = TinyCoreResult()
    for app in apps or MOBILE_APP_NAMES:
        base_run = run_app(app, chip=baseline, seed=seed)
        tiny_run = run_app(app, chip=tiny, seed=seed)
        result.power_saving_pct[app] = -relative_change_pct(
            tiny_run.avg_power_mw(), base_run.avg_power_mw()
        )
        result.perf_change_pct[app] = perf_change_pct(
            base_run.metric, tiny_run.performance_value(), base_run.performance_value()
        )
    return result
