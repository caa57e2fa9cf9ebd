"""Shared plumbing for the experiment runners."""

from __future__ import annotations

from typing import Optional

from repro.core.reductions import STUDY_REDUCTIONS
from repro.platform.chip import ChipSpec, CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.sched.governor import FixedFrequencyGovernor, Governor
from repro.sched.params import baseline_config
from repro.sim.engine import SimConfig, Simulator
from repro.sim.trace import Trace
from repro.workloads.base import Metric
from repro.workloads.spec import SpecBenchmark


def single_core_config(core_type: CoreType) -> CoreConfig:
    """One enabled core of the given type (paper Section III setup)."""
    if core_type is CoreType.LITTLE:
        return CoreConfig(little=1, big=0)
    return CoreConfig(little=0, big=1)


def fixed_governors(
    chip: ChipSpec, little_khz: Optional[int] = None, big_khz: Optional[int] = None
) -> dict[CoreType, Governor]:
    """Pin both clusters to fixed frequencies (defaults: cluster max)."""
    if little_khz is None:
        little_khz = chip.little_cluster.opp_table.max_khz
    if big_khz is None:
        big_khz = chip.big_cluster.opp_table.max_khz
    return {
        CoreType.LITTLE: FixedFrequencyGovernor(little_khz),
        CoreType.BIG: FixedFrequencyGovernor(big_khz),
    }


def run_spec_kernel(
    bench: SpecBenchmark,
    core_type: CoreType,
    freq_khz: int,
    chip: Optional[ChipSpec] = None,
    seed: int = 0,
    max_seconds: float = 60.0,
) -> tuple[float, float, Trace]:
    """Run one SPEC-like kernel pinned to one core type and frequency.

    Returns (elapsed seconds, average system power in mW, trace).
    """
    chip = chip or exynos5422()
    governors = fixed_governors(chip, little_khz=freq_khz, big_khz=freq_khz)
    config = SimConfig(
        chip=chip,
        core_config=single_core_config(core_type),
        scheduler=baseline_config(),
        governors=governors,
        max_seconds=max_seconds,
        seed=seed,
    )
    sim = Simulator(config)
    bench.install(sim)
    trace = sim.run()
    return trace.duration_s, trace.average_power_mw(), trace


#: Chip id of the default characterization platform (screen on).
STUDY_CHIP_ID = "exynos5422-screen"


def study_specs(apps: list[str], seed: int = 0) -> list["RunSpec"]:
    """Default-configuration specs carrying the shared study reductions.

    Tables III/IV/V and Figures 9/10 all run these specs, which declare
    :data:`~repro.core.reductions.STUDY_REDUCTIONS` and
    ``trace_policy="none"``: the spec key is identical across those
    artifacts, so a runner with a shared
    :class:`~repro.runner.cache.ResultCache` runs **one** simulation
    per app for all of them.
    """
    from repro.runner.spec import RunSpec

    return [
        RunSpec(
            app,
            chip=STUDY_CHIP_ID,
            seed=seed,
            reductions=STUDY_REDUCTIONS,
            trace_policy="none",
        )
        for app in apps
    ]


def relative_change_pct(new: float, base: float) -> float:
    """Percentage change of ``new`` relative to ``base``."""
    if base == 0:
        raise ZeroDivisionError("baseline value is zero")
    return 100.0 * (new - base) / base


def perf_change_pct(metric: Metric, new: float, base: float) -> float:
    """Performance change of ``new`` over ``base`` in percent, positive = better.

    FPS apps report the FPS change; latency apps, where lower is better,
    the negated latency increase.
    """
    change = relative_change_pct(new, base)
    return -change if metric is Metric.LATENCY else change
