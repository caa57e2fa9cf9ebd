"""Tables III and IV: TLP statistics and (big, little) activity matrices.

Both tables come from the same default-configuration runs of the 12
applications (:func:`~repro.experiments.common.study_specs`), so they
share one runner's results.

Expected shape (paper Section V): TLP below 3 for every app except
BBench (~4); big-core usage near zero for Angry Bird, Video Player,
YouTube and Browser, and high (20-60%) for BBench, Virus Scanner,
Encoder, and Eternity Warriors 2; in the matrices, the mass sits in the
low-count cells, and even when big cores are used it is almost always
exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.report import render_matrix, render_table
from repro.core.tlp import TLPStats
from repro.experiments.common import study_specs
from repro.runner import BatchRunner
from repro.workloads.mobile import MOBILE_APP_NAMES


@dataclass
class TLPTableResult:
    """Per-app Table III rows and Table IV matrices."""

    stats: dict[str, TLPStats] = field(default_factory=dict)
    matrices: dict[str, np.ndarray] = field(default_factory=dict)

    def table3_rows(self) -> list[list[object]]:
        return [
            [app, s.idle_pct, s.little_only_pct, s.big_active_pct, s.tlp]
            for app, s in self.stats.items()
        ]

    def render(self) -> str:
        parts = [
            render_table(
                ["app", "idle", "little", "big", "TLP"],
                self.table3_rows(),
                title="Table III: thread-level parallelism with 8 cores",
            )
        ]
        for app, matrix in self.matrices.items():
            parts.append(render_matrix(matrix, title=f"Table IV — {app} (% of samples)"))
        return "\n\n".join(parts)


def run_tlp_tables(
    apps: list[str] | None = None,
    seed: int = 0,
    runner: BatchRunner | None = None,
) -> TLPTableResult:
    """Run Tables III and IV over the selected apps (default: all 12).

    The apps execute as a batch of reduction-carrying specs
    (:func:`~repro.experiments.common.study_specs`): the TLP stats and
    matrices are computed *inside the workers* and only their payloads
    return — no traces cross the pool.  The default ``runner`` is
    serial and uncached; a runner with a shared cache dedups these runs
    with Figures 9/10 and Table V.
    """
    apps = apps or MOBILE_APP_NAMES
    report = (runner or BatchRunner(workers=1)).run(study_specs(apps, seed=seed))
    report.raise_on_failure()
    result = TLPTableResult()
    for app, run in zip(apps, report.results):
        result.stats[app] = run.reduction("tlp")
        result.matrices[app] = run.reduction("tlp_matrix")
    return result
