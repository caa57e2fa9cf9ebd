"""The characterization toolkit — the paper's primary contribution.

Given a :class:`repro.sim.trace.Trace`, this package computes every
analysis the paper reports:

- :mod:`repro.core.tlp` — Blake-style thread-level parallelism and the
  idle / little-only / big-active cycle decomposition (Table III);
- :mod:`repro.core.tlp_matrix` — the joint (big, little) active-core
  count distribution (Table IV);
- :mod:`repro.core.residency` — per-cluster frequency residency over
  active periods (Figures 9 and 10);
- :mod:`repro.core.efficiency` — the six-state scheduler/governor
  efficiency decomposition (Table V);
- :mod:`repro.core.study` — a high-level API that builds and runs an
  application under a configuration and returns all of the above;
- :mod:`repro.core.reductions` — the registry of named in-worker
  reductions behind ``RunSpec.reductions`` (ship summaries, not
  traces);
- :mod:`repro.core.report` — ASCII rendering of tables and figures.
"""

from repro.core.tlp import TLPStats, tlp_stats
from repro.core.tlp_matrix import tlp_matrix
from repro.core.reductions import (
    Reduction,
    ReductionContext,
    compute_reductions,
    decode_reduction,
    get_reduction,
    register_reduction,
    registered_reductions,
)
from repro.core.residency import frequency_residency
from repro.core.efficiency import EfficiencyBreakdown, efficiency_breakdown
from repro.core.energy import EnergyMetrics, compare_energy, energy_metrics
from repro.core.idleness import IdlenessProfile, idleness_profile
from repro.core.interactivity import LatencyDistribution, latency_distribution
from repro.core.power_breakdown import PowerBreakdown, power_breakdown
from repro.core.summary import AppReport, app_report
from repro.core.taskstats import TaskStats, TaskStatsCollector
from repro.core.timeline import render_timeline
from repro.core.study import AppRun, CharacterizationStudy, build_app_sim, run_app

__all__ = [
    "AppReport",
    "AppRun",
    "CharacterizationStudy",
    "EfficiencyBreakdown",
    "EnergyMetrics",
    "IdlenessProfile",
    "LatencyDistribution",
    "PowerBreakdown",
    "Reduction",
    "ReductionContext",
    "TLPStats",
    "TaskStats",
    "TaskStatsCollector",
    "app_report",
    "build_app_sim",
    "compare_energy",
    "compute_reductions",
    "decode_reduction",
    "efficiency_breakdown",
    "energy_metrics",
    "frequency_residency",
    "get_reduction",
    "register_reduction",
    "registered_reductions",
    "idleness_profile",
    "latency_distribution",
    "power_breakdown",
    "render_timeline",
    "run_app",
    "tlp_matrix",
    "tlp_stats",
]
