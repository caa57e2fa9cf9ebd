"""High-level API: build, run and characterize an application.

:func:`build_app_sim` is the one place an app's simulation is built: it
applies the app-family horizon and returns the app uninstalled, so
observers can attach to the simulator first.  :func:`run_app` runs one
Table II application under a chosen platform/scheduler configuration
and returns an :class:`AppRun` with the trace and the app's performance
metric.  :class:`CharacterizationStudy` adds the paper's steady-state
analyses (TLP, matrices, residency, efficiency), computed by the
registered reductions, and caches runs so that several analyses of the
same app share one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.platform.chip import ChipSpec, CoreConfig, exynos5422
from repro.sched.params import SchedulerConfig, baseline_config
from repro.sim.engine import SimConfig, Simulator
from repro.sim.trace import Trace
from repro.core.efficiency import CATEGORY_NAMES, EfficiencyBreakdown
from repro.core.reductions import STUDY_REDUCTIONS, compute_reductions, decode_reduction
from repro.core.report import render_matrix, render_table
from repro.core.tlp import TLPStats
from repro.workloads.base import App, Metric
from repro.workloads.mobile import make_app

#: Wall-clock cap for FPS-oriented apps (they run steady-state loops).
FPS_APP_SECONDS = 12.0

#: Safety cap for latency-oriented apps (they stop at end of script).
LATENCY_APP_CAP_SECONDS = 60.0


def build_app_sim(
    app: Union[str, App],
    chip: Optional[ChipSpec] = None,
    core_config: Optional[CoreConfig] = None,
    scheduler: Optional[SchedulerConfig] = None,
    scheduler_factory=None,
    governors=None,
    seed: int = 0,
    max_seconds: Optional[float] = None,
    fastpath: bool = True,
) -> tuple[App, Simulator]:
    """Build one app's simulation; the app comes back uninstalled.

    ``app`` is a :func:`~repro.workloads.mobile.make_app` name or an
    :class:`App`.  ``max_seconds`` defaults to the app-family
    convention: FPS apps run a fixed 12 s steady-state window; latency
    apps run to the end of their user-action script (capped at 60 s).
    The default chip has the screen on, matching the paper's
    interactive-app power measurements.  Attach observers to the
    simulator, then ``app.install(sim)`` (or :func:`install_and_run`).
    """
    if isinstance(app, str):
        app = make_app(app)
    if max_seconds is None:
        max_seconds = (
            FPS_APP_SECONDS if app.metric is Metric.FPS else LATENCY_APP_CAP_SECONDS
        )
    sim = Simulator(SimConfig(
        chip=chip or exynos5422(screen_on=True),
        core_config=core_config,
        scheduler=scheduler or baseline_config(),
        governors=governors,
        scheduler_factory=scheduler_factory,
        max_seconds=max_seconds,
        seed=seed,
        fastpath=fastpath,
    ))
    return app, sim


@dataclass
class AppRun:
    """One completed application run."""

    app: App
    trace: Trace
    config_label: str

    @property
    def name(self) -> str:
        return self.app.name

    @property
    def metric(self) -> Metric:
        return self.app.metric

    def latency_s(self) -> float:
        return self.app.latency_s()

    def avg_fps(self) -> float:
        return self.app.avg_fps()

    def min_fps(self) -> float:
        return self.app.min_fps()

    def performance_value(self) -> float:
        """The app's headline metric: latency (s) or average FPS."""
        return self.latency_s() if self.metric is Metric.LATENCY else self.avg_fps()

    def avg_power_mw(self) -> float:
        return float(self.trace.average_power_mw())

    def energy_mj(self) -> float:
        return self.trace.energy_mj()


def install_and_run(app: App, sim: Simulator) -> AppRun:
    """Install ``app`` on ``sim`` (from :func:`build_app_sim`) and run it.

    The run is labelled with the core configuration it simulated.
    """
    app.install(sim)
    trace = sim.run()
    return AppRun(app=app, trace=trace, config_label=sim.config.core_config.label())


def run_app(
    name: str,
    chip: Optional[ChipSpec] = None,
    core_config: Optional[CoreConfig] = None,
    scheduler: Optional[SchedulerConfig] = None,
    seed: int = 0,
    max_seconds: Optional[float] = None,
    app: Optional[App] = None,
    scheduler_factory=None,
) -> AppRun:
    """Run one Table II application (or ``app``) and return the run.

    Defaults are :func:`build_app_sim`'s.
    """
    return install_and_run(*build_app_sim(
        app if app is not None else name,
        chip=chip,
        core_config=core_config,
        scheduler=scheduler,
        scheduler_factory=scheduler_factory,
        seed=seed,
        max_seconds=max_seconds,
    ))


@dataclass
class AppCharacterization:
    """All per-app paper analyses computed from one run."""

    run: AppRun
    tlp: TLPStats
    matrix: np.ndarray
    little_residency: dict[int, float]
    big_residency: dict[int, float]
    efficiency: EfficiencyBreakdown

    @classmethod
    def from_run(cls, run: AppRun, chip: ChipSpec, **extra):
        """Analyze ``run`` through the registered study reductions.

        The reductions trim the launch transient
        (:data:`~repro.core.reductions.WARMUP_S`) exactly as the
        runner's workers do, so both report the same values.  ``extra``
        fills a subclass's further fields (see ``AppReport``).
        """
        payloads = compute_reductions(STUDY_REDUCTIONS, run.trace, chip)
        residency = decode_reduction("residency", payloads["residency"])
        return cls(
            run=run,
            tlp=decode_reduction("tlp", payloads["tlp"]),
            matrix=decode_reduction("tlp_matrix", payloads["tlp_matrix"]),
            little_residency=residency["little"],
            big_residency=residency["big"],
            efficiency=decode_reduction("efficiency", payloads["efficiency"]),
            **extra,
        )

    def render(self) -> str:
        """The TLP, active-core and efficiency tables (steady state)."""
        s = self.tlp
        return "\n\n".join([
            render_table(
                ["idle %", "little %", "big %", "TLP"],
                [[s.idle_pct, s.little_only_pct, s.big_active_pct, s.tlp]],
                title="TLP statistics (steady state)",
            ),
            render_matrix(self.matrix, title="Active-core distribution (%)"),
            render_table(
                CATEGORY_NAMES, [self.efficiency.as_row()],
                title="Efficiency decomposition (%)",
            ),
        ])


class CharacterizationStudy:
    """Runs and caches application characterizations (paper Sections V-VI)."""

    def __init__(
        self,
        chip: Optional[ChipSpec] = None,
        scheduler: Optional[SchedulerConfig] = None,
        seed: int = 0,
    ):
        self.chip = chip or exynos5422(screen_on=True)
        self.scheduler = scheduler or baseline_config()
        self.seed = seed
        self._cache: dict[str, AppCharacterization] = {}

    def characterize(self, app_name: str) -> AppCharacterization:
        """Run ``app_name`` under the default full configuration and analyze."""
        if app_name not in self._cache:
            run = run_app(
                app_name, chip=self.chip, scheduler=self.scheduler, seed=self.seed
            )
            self._cache[app_name] = AppCharacterization.from_run(run, self.chip)
        return self._cache[app_name]
