"""Extension: multitasking — what background services do to the picture.

The paper's single-app TLP numbers partly reflect the one-app-at-a-time
usage of phones.  Here each scenario runs a foreground app together
with background services (music decode, a large download) and compares
TLP, big-core usage, power, and the foreground metric against the solo
run.

Expected shape: TLP and power rise with background load, the idle share
collapses, and the foreground app's performance barely moves — the
under-used little cores absorb the services, which is precisely the
headroom the paper's Table III identified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.reductions import WARMUP_S
from repro.core.report import render_table
from repro.core.study import build_app_sim, install_and_run
from repro.core.tlp import TLPStats, tlp_stats
from repro.workloads.base import App, Metric
from repro.workloads.scenarios import SCENARIOS, Scenario


@dataclass
class ScenarioOutcome:
    """Solo vs multitasking measurements for one scenario."""

    solo_tlp: TLPStats
    multi_tlp: TLPStats
    solo_power_mw: float
    multi_power_mw: float
    solo_perf: float
    multi_perf: float
    metric: Metric

    @property
    def perf_change_pct(self) -> float:
        if self.solo_perf == 0:
            return 0.0
        change = 100.0 * (self.multi_perf - self.solo_perf) / self.solo_perf
        # Normalize so positive is always better.
        return -change if self.metric is Metric.LATENCY else change


@dataclass
class MultitaskingResult:
    outcomes: dict[str, ScenarioOutcome] = field(default_factory=dict)

    def render(self) -> str:
        rows = []
        for name, o in self.outcomes.items():
            rows.append([
                name,
                o.solo_tlp.tlp, o.multi_tlp.tlp,
                o.solo_tlp.idle_pct, o.multi_tlp.idle_pct,
                o.solo_power_mw, o.multi_power_mw,
                o.perf_change_pct,
            ])
        return render_table(
            ["scenario", "TLP solo", "TLP multi", "idle% solo", "idle% multi",
             "mW solo", "mW multi", "fg perf %"],
            rows,
            title="Extension: multitasking vs solo foreground app",
        )


def _perf(app: App) -> float:
    return app.latency_s() if app.metric is Metric.LATENCY else app.avg_fps()


def run_multitasking(
    scenarios: list[Scenario] | None = None, seed: int = 0
) -> MultitaskingResult:
    result = MultitaskingResult()
    for scenario in scenarios or list(SCENARIOS.values()):
        # Both runs get the foreground app's horizon; the multitasking
        # run installs the whole scenario in place of the solo app.
        solo = install_and_run(*build_app_sim(scenario.foreground, seed=seed))
        _, sim = build_app_sim(scenario.foreground, seed=seed)
        multi_app = scenario.install(sim)
        multi_trace = sim.run()

        result.outcomes[scenario.name] = ScenarioOutcome(
            solo_tlp=tlp_stats(solo.trace.trimmed(WARMUP_S)),
            multi_tlp=tlp_stats(multi_trace.trimmed(WARMUP_S)),
            solo_power_mw=solo.avg_power_mw(),
            multi_power_mw=float(multi_trace.average_power_mw()),
            solo_perf=_perf(solo.app),
            multi_perf=_perf(multi_app),
            metric=solo.metric,
        )
    return result
