"""Named trace reductions, executable inside pool workers.

The registry behind ``RunSpec.reductions``: a reduction maps a finished
run to a small JSON-safe summary (a TLP row, residency buckets, the
efficiency decomposition, mean power) so batch experiments can ship a
few hundred bytes back from each worker instead of a dense multi-
megabyte trace — the "reduce at source" half of the result pipeline.

Every reduction is a (compute, decode) pair:

- ``compute(ctx)`` runs **in the worker** on the live trace and must
  return plain JSON-compatible data (so payloads survive both pickle
  transport and the cache's ``result.json``);
- ``decode(payload)`` runs in the parent and rebuilds the rich analysis
  object (:class:`~repro.core.tlp.TLPStats`, a numpy matrix, …) from
  that payload.

The registry is the one owner of the paper's steady-state recipe: the
runner's workers and :class:`~repro.core.study.CharacterizationStudy`
both compute Tables III-V and Figures 9/10 through
:data:`STUDY_REDUCTIONS`, over the trace trimmed by :data:`WARMUP_S`.
A payload decodes to exactly the value a direct :mod:`repro.core` call
on the trimmed trace gives (``tests/test_reductions.py`` asserts this
for every registered reduction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

import numpy as np

from repro.core.efficiency import EfficiencyBreakdown, efficiency_breakdown
from repro.core.residency import frequency_residency
from repro.core.tlp import TLPStats, tlp_stats
from repro.core.tlp_matrix import tlp_matrix
from repro.platform.chip import ChipSpec
from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace
from repro.units import WARMUP_S

#: The reductions behind the paper's per-app analyses (Tables III-V,
#: Figures 9/10).  Every study artifact declares this same set, so a
#: shared :class:`~repro.runner.cache.ResultCache` keeps one simulation
#: per app across them.
STUDY_REDUCTIONS = ("tlp", "tlp_matrix", "residency", "efficiency", "power_summary")


class ReductionContext:
    """What a reduction may read: the trace, its steady view, the chip.

    ``steady`` (the warmup-trimmed aliasing view) is built lazily and
    shared across the reductions of one run, so a five-reduction spec
    trims once.  ``scalars`` carries the worker-computed RunResult
    scalars (metric, fps/latency, power) for reductions that summarize
    them rather than the trace.
    """

    def __init__(
        self,
        trace: Trace,
        chip: ChipSpec,
        scalars: Optional[dict[str, Any]] = None,
    ):
        self.trace = trace
        self.chip = chip
        self.scalars = scalars or {}
        self._steady: Optional[Trace] = None

    @property
    def steady(self) -> Trace:
        if self._steady is None:
            self._steady = self.trace.trimmed(WARMUP_S)
        return self._steady


@dataclass(frozen=True)
class Reduction:
    """A named reduction: in-worker compute plus parent-side decode."""

    name: str
    compute: Callable[[ReductionContext], Any]
    decode: Callable[[Any], Any]
    doc: str = ""


_REGISTRY: dict[str, Reduction] = {}


def register_reduction(
    name: str,
    compute: Callable[[ReductionContext], Any],
    decode: Optional[Callable[[Any], Any]] = None,
    doc: str = "",
) -> Reduction:
    """Register (or replace) a named reduction and return it."""
    reduction = Reduction(name, compute, decode or (lambda payload: payload), doc)
    _REGISTRY[name] = reduction
    return reduction


def get_reduction(name: str) -> Reduction:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown reduction {name!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def registered_reductions() -> list[str]:
    return sorted(_REGISTRY)


def compute_reductions(
    names: Union[list[str], tuple[str, ...]],
    trace: Trace,
    chip: ChipSpec,
    scalars: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Run the named reductions over one trace (worker side)."""
    ctx = ReductionContext(trace, chip, scalars)
    return {name: get_reduction(name).compute(ctx) for name in names}


def decode_reduction(name: str, payload: Any) -> Any:
    """Rebuild the rich analysis object from a reduction payload."""
    return get_reduction(name).decode(payload)


# ---------------------------------------------------------------------------
# Built-in reductions
# ---------------------------------------------------------------------------


def _tlp_compute(ctx: ReductionContext) -> dict[str, Any]:
    s = tlp_stats(ctx.steady)
    return {
        "idle_pct": s.idle_pct, "little_only_pct": s.little_only_pct,
        "big_active_pct": s.big_active_pct, "tlp": s.tlp,
        "n_windows": s.n_windows,
    }


def _tlp_decode(payload: dict[str, Any]) -> TLPStats:
    return TLPStats(**payload)


def _tlp_matrix_compute(ctx: ReductionContext) -> list[list[float]]:
    return tlp_matrix(ctx.steady).tolist()


def _tlp_matrix_decode(payload: list[list[float]]) -> np.ndarray:
    return np.array(payload, dtype=np.float64)


def _residency_compute(ctx: ReductionContext) -> dict[str, list[list[float]]]:
    # (khz, pct) pairs rather than a dict: JSON would stringify int keys.
    return {
        "little": [
            [khz, pct]
            for khz, pct in frequency_residency(ctx.steady, CoreType.LITTLE).items()
        ],
        "big": [
            [khz, pct]
            for khz, pct in frequency_residency(ctx.steady, CoreType.BIG).items()
        ],
    }


def _residency_decode(payload: dict[str, Any]) -> dict[str, dict[int, float]]:
    return {
        cluster: {int(khz): float(pct) for khz, pct in pairs}
        for cluster, pairs in payload.items()
    }


def _efficiency_compute(ctx: ReductionContext) -> dict[str, float]:
    b = efficiency_breakdown(
        ctx.steady,
        little_min_khz=ctx.chip.little_cluster.opp_table.min_khz,
        big_max_khz=ctx.chip.big_cluster.opp_table.max_khz,
    )
    return {
        "min_pct": b.min_pct, "under_50_pct": b.under_50_pct,
        "pct_50_70": b.pct_50_70, "pct_70_95": b.pct_70_95,
        "over_95_pct": b.over_95_pct, "full_pct": b.full_pct,
    }


def _efficiency_decode(payload: dict[str, float]) -> EfficiencyBreakdown:
    return EfficiencyBreakdown(**payload)


def _power_summary_compute(ctx: ReductionContext) -> dict[str, float]:
    trace = ctx.trace
    return {
        "avg_power_mw": float(trace.average_power_mw()),
        "energy_mj": float(trace.energy_mj()),
        "duration_s": float(trace.duration_s),
        "little_cpu_mw_mean": float(trace.cpu_power_mw(CoreType.LITTLE).mean())
        if len(trace) else 0.0,
        "big_cpu_mw_mean": float(trace.cpu_power_mw(CoreType.BIG).mean())
        if len(trace) else 0.0,
        "wakeups_per_s": float(trace.wakeups_per_second()),
    }


def _fps_compute(ctx: ReductionContext) -> dict[str, Any]:
    s = ctx.scalars
    return {
        "metric": s.get("metric"),
        "avg_fps": s.get("avg_fps"),
        "min_fps": s.get("min_fps"),
        "latency_s": s.get("latency_s"),
    }


register_reduction(
    "tlp", _tlp_compute, _tlp_decode,
    doc="Table III row: idle/little/big shares and TLP (steady state).",
)
register_reduction(
    "tlp_matrix", _tlp_matrix_compute, _tlp_matrix_decode,
    doc="Table IV joint (big, little) active-core matrix (steady state).",
)
register_reduction(
    "residency", _residency_compute, _residency_decode,
    doc="Figures 9/10 per-cluster frequency residency (steady state).",
)
register_reduction(
    "efficiency", _efficiency_compute, _efficiency_decode,
    doc="Table V six-state efficiency decomposition (steady state).",
)
register_reduction(
    "power_summary", _power_summary_compute,
    doc="Mean power, energy, per-cluster CPU power, wakeup rate (full trace).",
)
register_reduction(
    "fps", _fps_compute,
    doc="The app's headline performance scalars (fps/latency).",
)
