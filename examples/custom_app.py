"""Model a brand-new application and characterize it.

Shows the workload-authoring API end to end: a hypothetical
"navigation" app (periodic GPS + map re-render + route recomputation
bursts) is assembled from the same thread shapes the 12 paper apps use,
then run through the full characterization pipeline — including a check
of whether it would survive on a little-only platform.

Run:  python examples/custom_app.py
"""

from repro.core.reductions import WARMUP_S
from repro.core.report import render_matrix, render_table
from repro.core.study import run_app
from repro.core.tlp import tlp_stats
from repro.platform.chip import CoreConfig, exynos5422
from repro.platform.perfmodel import WorkClass
from repro.sim.engine import Simulator
from repro.workloads.base import (
    ActionSpec,
    App,
    BackgroundSpec,
    FramePipelineSpec,
    Metric,
    PeriodicSpec,
)

MAP_RENDER = WorkClass("map-render", compute_fraction=0.8, wss_kb=700, ilp=0.6)
ROUTING = WorkClass("routing", compute_fraction=0.7, wss_kb=1500, ilp=0.5)


class NavigationApp(App):
    """Turn-by-turn navigation: steady map rendering + routing bursts."""

    def __init__(self) -> None:
        super().__init__("navigation", Metric.FPS, MAP_RENDER,
                         ambient_ui_duty=0.0, ambient_bg_interval_ms=300)

    def build(self, sim: Simulator) -> None:
        # The map view redraws continuously at 30 fps.
        self.add_frame_pipeline(sim, FramePipelineSpec(
            logic_units=0.0020, render_units=0.0030, units_sigma=0.3, fps=30,
            helpers=1))
        # GPS fix processing every second.
        self.add_periodic(sim, PeriodicSpec(
            "gps", period_ms=1000, units_mean=0.004, work_class=ROUTING))
        # Route recomputation bursts when the driver deviates (~ every 5 s).
        self.add_background(sim, BackgroundSpec(
            "reroute", mean_interval_ms=5000, units_mean=0.12,
            units_sigma=0.3, work_class=ROUTING))
        # Voice guidance audio.
        self.add_periodic(sim, PeriodicSpec("audio", period_ms=20,
                                            units_mean=0.0012))


def main() -> None:
    chip = exynos5422(screen_on=True)
    run = run_app("navigation", chip=chip, app=NavigationApp(),
                  seed=3, max_seconds=20.0)
    steady = run.trace.trimmed(WARMUP_S)

    stats = tlp_stats(steady)
    print(render_table(
        ["idle %", "little %", "big %", "TLP", "avg FPS", "power mW"],
        [[stats.idle_pct, stats.little_only_pct, stats.big_active_pct,
          stats.tlp, run.avg_fps(), run.avg_power_mw()]],
        title="navigation app on L4+B4 (defaults)",
    ))
    from repro.core.tlp_matrix import tlp_matrix
    print()
    print(render_matrix(tlp_matrix(steady), title="active-core distribution (%)"))

    # Would it survive without big cores?
    little_only = run_app("navigation", chip=chip, app=NavigationApp(),
                          core_config=CoreConfig(4, 0), seed=3, max_seconds=20.0)
    print(f"\nL4+B4: {run.avg_fps():.1f} fps at {run.avg_power_mw():.0f} mW")
    print(f"L4:    {little_only.avg_fps():.1f} fps at {little_only.avg_power_mw():.0f} mW")
    drop = run.avg_fps() - little_only.avg_fps()
    verdict = "survives on little cores" if drop < 2.0 else "needs at least one big core"
    print(f"verdict: {verdict} (fps drop {drop:.1f})")


if __name__ == "__main__":
    main()
