"""Figures 9 and 10: frequency residency of little and big clusters.

For each application the interactive governor's chosen frequencies are
tallied over the cluster's *active* periods.

Expected shape (paper Section VI.A): little-core distributions vary
widely by app (video playback parks at the minimum frequency, heavy
games spread across the range); big cores run at high frequencies for
the burst-absorbing latency apps (encoder, photo editor, virus scanner)
but at *low* frequencies for games and browsing, where they only mop up
occasional overflow load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.report import render_table
from repro.experiments.common import STUDY_CHIP_ID, study_specs
from repro.platform.coretypes import CoreType
from repro.runner import BatchRunner
from repro.runner.spec import resolve_chip
from repro.workloads.mobile import MOBILE_APP_NAMES


@dataclass
class FreqResidencyResult:
    """residency[core_type][app] -> {freq_khz: % of active time}."""

    residency: dict[CoreType, dict[str, dict[int, float]]] = field(default_factory=dict)
    opp_freqs: dict[CoreType, tuple[int, ...]] = field(default_factory=dict)

    def low_freq_share(self, core_type: CoreType, app: str, count: int = 3) -> float:
        """Percentage of active time in the lowest ``count`` OPPs."""
        low = set(self.opp_freqs[core_type][:count])
        return sum(
            pct for f, pct in self.residency[core_type][app].items() if f in low
        )

    def high_freq_share(self, core_type: CoreType, app: str, count: int = 3) -> float:
        """Percentage of active time in the highest ``count`` OPPs."""
        high = set(self.opp_freqs[core_type][-count:])
        return sum(
            pct for f, pct in self.residency[core_type][app].items() if f in high
        )

    def render(self) -> str:
        parts = []
        for core_type, per_app in self.residency.items():
            freqs = self.opp_freqs[core_type]
            headers = ["app"] + [f"{f / 1e6:.1f}" for f in freqs]
            rows = [
                [app] + [per_app[app].get(f, 0.0) for f in freqs] for app in per_app
            ]
            fig = "Figure 9" if core_type is CoreType.LITTLE else "Figure 10"
            parts.append(
                render_table(
                    headers,
                    rows,
                    title=f"{fig}: {core_type} core frequency residency (% of active time, GHz)",
                    float_fmt="{:.1f}",
                )
            )
        return "\n\n".join(parts)


def run_frequency_residency(
    apps: list[str] | None = None,
    seed: int = 0,
    runner: BatchRunner | None = None,
) -> FreqResidencyResult:
    """Run Figures 9 and 10 over the selected apps (default: all 12).

    Residency is tallied in-worker via the ``"residency"`` reduction.
    The default ``runner`` is serial and uncached; the specs share
    their cache entries with Tables III/IV/V.
    """
    apps = apps or MOBILE_APP_NAMES
    chip = resolve_chip(STUDY_CHIP_ID)
    result = FreqResidencyResult()
    result.residency = {CoreType.LITTLE: {}, CoreType.BIG: {}}
    result.opp_freqs = {
        CoreType.LITTLE: chip.little_cluster.opp_table.frequencies_khz,
        CoreType.BIG: chip.big_cluster.opp_table.frequencies_khz,
    }
    report = (runner or BatchRunner(workers=1)).run(study_specs(apps, seed=seed))
    report.raise_on_failure()
    for app, run in zip(apps, report.results):
        residency = run.reduction("residency")
        result.residency[CoreType.LITTLE][app] = residency["little"]
        result.residency[CoreType.BIG][app] = residency["big"]
    return result
