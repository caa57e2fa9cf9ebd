"""Multi-seed statistics: mean and spread for the stochastic metrics.

The app models draw burst sizes, think times, and scene phases from
seeded RNG streams, so single-run numbers carry seed noise (games'
big-core share varies by several points).  This module repeats a
measurement across seeds and reports mean ± sample standard deviation,
putting error bars on anything the single-seed artifacts report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.report import render_table
from repro.experiments.common import STUDY_CHIP_ID
from repro.runner import BatchRunner, RunSpec
from repro.workloads.mobile import MOBILE_APP_NAMES


@dataclass(frozen=True)
class SeedStats:
    """Mean and sample standard deviation over seeds."""

    mean: float
    std: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f}"


def seed_stats(values: list[float]) -> SeedStats:
    if not values:
        raise ValueError("seed_stats of empty list")
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return SeedStats(mean, 0.0, 1)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return SeedStats(mean, math.sqrt(var), n)


def across_seeds(
    measure: Callable[[int], float], seeds: list[int]
) -> SeedStats:
    """Evaluate ``measure(seed)`` for every seed and summarize."""
    return seed_stats([measure(seed) for seed in seeds])


@dataclass
class MultiSeedTLPResult:
    """Table III statistics with error bars."""

    idle: dict[str, SeedStats] = field(default_factory=dict)
    big: dict[str, SeedStats] = field(default_factory=dict)
    tlp: dict[str, SeedStats] = field(default_factory=dict)
    seeds: list[int] = field(default_factory=list)

    def render(self) -> str:
        rows = [
            [app, str(self.idle[app]), str(self.big[app]), str(self.tlp[app])]
            for app in self.tlp
        ]
        return render_table(
            ["app", "idle %", "big %", "TLP"],
            rows,
            title=f"Table III across seeds {self.seeds} (mean±std)",
        )


def run_tlp_multiseed(
    apps: list[str] | None = None,
    seeds: list[int] | None = None,
    workers: int | None = 1,
    runner: BatchRunner | None = None,
) -> MultiSeedTLPResult:
    """Table III with error bars over several seeds.

    Each (app, seed) simulation is an independent :class:`RunSpec`
    dispatched through :class:`BatchRunner`; the TLP statistics are
    computed **inside the workers** via the ``"tlp"`` reduction (the
    one :meth:`~repro.core.study.CharacterizationStudy.characterize`
    also uses), so no trace ever crosses the pool.
    """
    seeds = seeds if seeds is not None else [0, 1, 2]
    apps = apps or MOBILE_APP_NAMES
    specs = [
        RunSpec(
            app, chip=STUDY_CHIP_ID, seed=seed,
            reductions=("tlp",), trace_policy="none",
        )
        for seed in seeds
        for app in apps
    ]
    if runner is None:
        runner = BatchRunner(workers=workers)
    report = runner.run(specs)
    report.raise_on_failure()
    per_seed = {}
    for i, seed in enumerate(seeds):
        rows = report.results[i * len(apps) : (i + 1) * len(apps)]
        per_seed[seed] = {
            app: run.reduction("tlp") for app, run in zip(apps, rows)
        }
    result = MultiSeedTLPResult(seeds=list(seeds))
    for app in apps:
        result.idle[app] = seed_stats([per_seed[s][app].idle_pct for s in seeds])
        result.big[app] = seed_stats(
            [per_seed[s][app].big_active_pct for s in seeds]
        )
        result.tlp[app] = seed_stats([per_seed[s][app].tlp for s in seeds])
    return result
