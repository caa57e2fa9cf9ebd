"""Table V: scheduler/governor efficiency decomposition.

Each application's 10 ms intervals are classified into the six states of
:mod:`repro.core.efficiency` (min, <50%, 50-70%, 70-95%, >95%, full).

Expected shape (paper Section VI.B): the majority of cycles land in
``min`` or ``<50%`` — the platform cannot provision less capacity than
a little core at its minimum frequency, and the governor leaves a
conservative utilization margin.  Bursty apps (bbench, encoder) show a
sizable ``>95%`` share where DVFS lags behind load jumps, and the
encoder/virus scanner reach the ``full`` state (a saturated big core at
maximum frequency) for a few percent of cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.efficiency import CATEGORY_NAMES, EfficiencyBreakdown
from repro.core.report import render_table
from repro.experiments.common import study_specs
from repro.runner import BatchRunner
from repro.workloads.mobile import MOBILE_APP_NAMES


@dataclass
class EfficiencyTableResult:
    breakdowns: dict[str, EfficiencyBreakdown] = field(default_factory=dict)

    def rows(self) -> list[list[object]]:
        return [[app] + b.as_row() for app, b in self.breakdowns.items()]

    def render(self) -> str:
        return render_table(
            ["app"] + CATEGORY_NAMES,
            self.rows(),
            title="Table V: efficiency decomposition (% of 10ms intervals)",
        )


def run_efficiency_table(
    apps: list[str] | None = None,
    seed: int = 0,
    runner: BatchRunner | None = None,
) -> EfficiencyTableResult:
    """Run Table V over the selected apps (default: all 12).

    The breakdown is computed in-worker via the ``"efficiency"``
    reduction.  The default ``runner`` is serial and uncached; the
    specs share their cache entries with Tables III/IV and Figures 9/10.
    """
    apps = apps or MOBILE_APP_NAMES
    report = (runner or BatchRunner(workers=1)).run(study_specs(apps, seed=seed))
    report.raise_on_failure()
    result = EfficiencyTableResult()
    for app, run in zip(apps, report.results):
        result.breakdowns[app] = run.reduction("efficiency")
    return result
