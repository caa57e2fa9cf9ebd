"""Calibrated power model for the asymmetric SoC.

The paper measures *whole-system* power with a Monsoon meter (screen and
network off for the SPEC experiments).  We reproduce that with:

``P_system = P_base + sum_clusters(P_cluster) + sum_cores(P_core)``

where for an enabled core running at voltage ``V`` and frequency ``f``
(GHz) with busy fraction ``u``:

``P_core = P_static + P_dynamic``
``P_static = static_mw_per_v * V``            (leakage, always-on when the
                                               core is enabled; reduced by
                                               ``idle_static_fraction``
                                               while the core is idle/WFI)
``P_dynamic = dyn_mw_per_v2ghz * V^2 * f * u * activity``

and each powered cluster adds a constant L2/uncore term.

Calibration targets, taken from the paper's text (Section III.A, SPEC
workloads at ~100% utilization, whole-system power):

- big @ 1.3 GHz  ~= 2.3x the power of little @ 1.3 GHz,
- big @ 0.8 GHz  ~= 1.5x the power of little @ 1.3 GHz,
- power varies less across applications than performance does,
- Figure 6: power rises linearly with utilization, with a steeper slope at
  higher frequency, and big/little cover clearly separated power ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.platform.coretypes import CoreType
from repro.units import khz_to_ghz


@dataclass(frozen=True)
class CorePowerParams:
    """Power coefficients for one core type.

    ``idle_static_fraction`` is the leakage retained in the shallow WFI
    idle state (clock-gated); ``deep_idle_static_fraction`` is the
    residue in the deep power-down state cpuidle enters after the core
    has been continuously idle for the platform's entry threshold.
    """

    static_mw_per_v: float
    dyn_mw_per_v2ghz: float
    idle_static_fraction: float = 0.25
    deep_idle_static_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.static_mw_per_v < 0 or self.dyn_mw_per_v2ghz < 0:
            raise ValueError("power coefficients must be non-negative")
        if not 0.0 <= self.idle_static_fraction <= 1.0:
            raise ValueError(
                f"idle_static_fraction must be in [0, 1], got {self.idle_static_fraction}"
            )
        if not 0.0 <= self.deep_idle_static_fraction <= self.idle_static_fraction:
            raise ValueError(
                "deep_idle_static_fraction must be in [0, idle_static_fraction], "
                f"got {self.deep_idle_static_fraction}"
            )


def _default_core_params() -> dict[CoreType, CorePowerParams]:
    # Solved so that, with base_mw = 300 and one fully-busy core:
    #   little @ 1.3 GHz (1.20 V) ~= 550 mW system
    #   big    @ 1.3 GHz (1.105 V) ~= 2.3 x little  (~1265 mW)
    #   big    @ 0.8 GHz (0.90 V)  ~= 1.5 x little  (~825 mW)
    return {
        CoreType.LITTLE: CorePowerParams(static_mw_per_v=40.0, dyn_mw_per_v2ghz=108.0),
        CoreType.BIG: CorePowerParams(static_mw_per_v=292.0, dyn_mw_per_v2ghz=405.0),
    }


@dataclass(frozen=True)
class PowerParams:
    """Full-system power parameters.

    Attributes:
        base_mw: constant power of everything outside the CPU complex
            (memory, regulators, idle peripherals).
        screen_mw: display (and GPU compositing) power.  Zero for the
            paper's SPEC/microbenchmark experiments ("the screen and
            networks are turned off"); the interactive-app measurements
            include it, which is why their big-vs-little power deltas
            are proportionally much smaller than SPEC's.
        cluster_mw: per-cluster uncore/L2 power while the cluster has at
            least one enabled core.
        core: per-core-type coefficients.
    """

    base_mw: float = 300.0
    screen_mw: float = 0.0
    #: Continuous idle time before cpuidle takes a core from WFI into
    #: the deep power-down state.
    deep_idle_entry_ms: float = 10.0
    cluster_mw: dict[CoreType, float] = field(
        default_factory=lambda: {CoreType.LITTLE: 10.0, CoreType.BIG: 30.0}
    )
    core: dict[CoreType, CorePowerParams] = field(default_factory=_default_core_params)


class PowerModel:
    """Evaluates core, cluster, and system power from runtime state."""

    #: Memo entries kept before the cache is dropped wholesale.  Idle and
    #: governor-quantized states recur endlessly (high hit rate); fully
    #: continuous busy fractions would otherwise grow the dict unbounded.
    _CACHE_LIMIT = 65536

    def __init__(self, params: PowerParams | None = None):
        self.params = params or PowerParams()
        self._core_mw_cache: dict[tuple, float] = {}

    def core_power_mw(
        self,
        core_type: CoreType,
        freq_khz: int,
        voltage_v: float,
        busy_fraction: float,
        activity_factor: float = 1.0,
        deep_idle: bool = False,
    ) -> float:
        """Power of one enabled core over an interval.

        ``busy_fraction`` is the fraction of the interval the core spent
        executing (the remainder is WFI idle at reduced leakage, or the
        deep power-down residue when ``deep_idle`` is set — the engine
        sets it once a core has been idle past ``deep_idle_entry_ms``).
        Results are memoized on the argument tuple; a cached entry was
        necessarily computed from valid arguments.
        """
        key = (core_type, freq_khz, voltage_v, busy_fraction, activity_factor, deep_idle)
        cached = self._core_mw_cache.get(key)
        if cached is not None:
            return cached
        if not 0.0 <= busy_fraction <= 1.0:
            raise ValueError(f"busy_fraction must be in [0, 1], got {busy_fraction}")
        p = self.params.core[core_type]
        # Leakage: full while running, reduced while idle.
        idle_fraction = (
            p.deep_idle_static_fraction if deep_idle else p.idle_static_fraction
        )
        static_active = p.static_mw_per_v * voltage_v
        static = (
            busy_fraction * static_active
            + (1.0 - busy_fraction) * static_active * idle_fraction
        )
        dynamic = (
            p.dyn_mw_per_v2ghz
            * voltage_v**2
            * khz_to_ghz(freq_khz)
            * busy_fraction
            * activity_factor
        )
        result = static + dynamic
        if len(self._core_mw_cache) >= self._CACHE_LIMIT:
            self._core_mw_cache.clear()
        self._core_mw_cache[key] = result
        return result

    def cluster_power_mw(self, core_type: CoreType, enabled: bool) -> float:
        """Uncore/L2 power of one cluster."""
        return self.params.cluster_mw[core_type] if enabled else 0.0

    def system_power_mw(self, core_powers_mw: list[float], cluster_powers_mw: list[float]) -> float:
        """Total system power from already-evaluated component powers."""
        return (
            self.params.base_mw
            + self.params.screen_mw
            + sum(core_powers_mw)
            + sum(cluster_powers_mw)
        )


class DeferredPowerPipeline:
    """Deferred, vectorized writer of every trace column.

    When there is no thermal or GPU feedback, nothing inside a run reads
    the trace — only post-run analyses do.  The engine then
    :meth:`stage`\\ s each tick's raw inputs (per-core busy fractions,
    activity factors, deep-idle flags, both cluster frequencies and the
    wake-up count) as rows of one or more consecutive ticks: a reference
    tick stages a 1-tick row, a fast-forward span one row per
    constant-power segment.  Staging reserves the rows in the trace, so
    ``len(trace)`` advances tick by tick; :meth:`flush` computes
    core/cluster/system power for all staged rows at once with NumPy and
    writes every column back with one vectorized assignment each
    (:meth:`Trace.fill_rows`).

    **Bit-exactness contract** (verified by the golden-trace suite): the
    vectorized arithmetic reproduces ``Simulator._record``'s scalar
    arithmetic operation for operation —

    - per-OPP prefactors (``static_mw_per_v * V`` and
      ``(dyn_mw_per_v2ghz * V**2) * f_ghz``) are precomputed in *Python*
      floats with the exact expressions and association of
      :meth:`PowerModel.core_power_mw`, then broadcast by OPP lookup, so
      elementwise multiplies see identical operands;
    - core and cluster sums are sequential left folds in core order
      (never ``np.sum``, whose pairwise reduction rounds differently);
    - values stay float64 end to end and are cast to their column's
      dtype once, when :meth:`Trace.fill_rows` writes them — the same
      single cast the scalar :meth:`Trace.record` performs.
    """

    #: Auto-flush threshold: bounds the staging memory, about 480 B of
    #: Python objects per staged row under tracemalloc (2.0 MB at this
    #: threshold; a 60 s ``video-player`` run stages 39,223 rows and
    #: would otherwise hold 19 MB until its end-of-run flush).  Flushing
    #: mid-run is bit-exact: staged row sets are disjoint.
    _FLUSH_THRESHOLD = 4096

    def __init__(self, power_model: PowerModel, trace, core_types, enabled, opp_tables):
        self._pm = power_model
        self._trace = trace
        self._core_types = list(core_types)
        self._enabled = list(enabled)
        # Per-cluster OPP lookup tables: sorted frequencies plus the
        # scalar prefactors of core_power_mw at each OPP.
        self._luts: dict[CoreType, tuple] = {}
        for core_type, table in opp_tables.items():
            p = power_model.params.core[core_type]
            freqs = sorted(table.frequencies_khz)
            static_active = []
            dyn_prefactor = []
            for freq_khz in freqs:
                voltage_v = table.voltage_at(freq_khz)
                static_active.append(p.static_mw_per_v * voltage_v)
                dyn_prefactor.append(
                    (p.dyn_mw_per_v2ghz * voltage_v**2) * khz_to_ghz(freq_khz)
                )
            self._luts[core_type] = (
                np.asarray(freqs, dtype=np.int64),
                np.asarray(static_active, dtype=np.float64),
                np.asarray(dyn_prefactor, dtype=np.float64),
                p.idle_static_fraction,
                p.deep_idle_static_fraction,
            )
        #: Staged rows since the last flush, each ``(busy, activity
        #: factors, deep flags, little kHz, big kHz, wake-ups, ticks)``;
        #: together they are the trace's last reserved rows.
        self._rows: list[tuple] = []

    def stage(
        self,
        busy_fractions,
        activity_factors,
        deep_flags,
        little_freq_khz,
        big_freq_khz,
        wakeups,
        ticks=1,
    ) -> None:
        """Append ``ticks`` trace rows sharing one set of tick inputs.

        ``busy_fractions`` covers all cores; ``activity_factors`` and
        ``deep_flags`` cover enabled cores in core order.  The lists are
        kept by reference — callers must not mutate them afterwards.
        """
        self._trace.reserve(ticks)
        rows = self._rows
        rows.append((
            busy_fractions, activity_factors, deep_flags,
            little_freq_khz, big_freq_khz, wakeups, ticks,
        ))
        if len(rows) >= self._FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        """Compute power for all staged rows and write every trace column."""
        rows = self._rows
        if not rows:
            return
        self._rows = []
        busy, af, deep, little_khz, big_khz, wakeups, ticks = (
            np.asarray(column, dtype=dtype)
            for column, dtype in zip(
                zip(*rows),
                (np.float64, np.float64, bool, np.int64, np.int64, np.int64, np.intp),
            )
        )
        # Free the staged Python rows before the power arithmetic (in
        # place: ``stage`` still holds the list while it flushes).
        rows.clear()
        freq_by_type = {CoreType.LITTLE: little_khz, CoreType.BIG: big_khz}

        pm = self._pm
        n = len(busy)
        prefactors = {}
        for core_type, (freqs, static_active, dyn_prefactor, ifrac, dfrac) in (
            self._luts.items()
        ):
            pos = np.searchsorted(freqs, freq_by_type[core_type])
            prefactors[core_type] = (
                static_active[pos], dyn_prefactor[pos], ifrac, dfrac
            )

        # Sequential left folds in core order, exactly as _record
        # accumulates (0.0 + x == x for the positive powers involved).
        core_sum = np.zeros(n, dtype=np.float64)
        little_sum = np.zeros(n, dtype=np.float64)
        big_sum = np.zeros(n, dtype=np.float64)
        enabled_index = 0
        for core_index, core_type in enumerate(self._core_types):
            if not self._enabled[core_index]:
                continue
            static_active, dyn_prefactor, ifrac, dfrac = prefactors[core_type]
            b = busy[:, core_index]
            idle_fraction = np.where(deep[:, enabled_index], dfrac, ifrac)
            static = b * static_active + ((1.0 - b) * static_active) * idle_fraction
            dynamic = (dyn_prefactor * b) * af[:, enabled_index]
            core_mw = static + dynamic
            core_sum = core_sum + core_mw
            if core_type is CoreType.LITTLE:
                little_sum = little_sum + core_mw
            else:
                big_sum = big_sum + core_mw
            enabled_index += 1

        cluster_powers = [
            pm.cluster_power_mw(
                core_type,
                any(
                    e and t is core_type
                    for t, e in zip(self._core_types, self._enabled)
                ),
            )
            for core_type in (CoreType.LITTLE, CoreType.BIG)
        ]
        base = pm.params.base_mw + pm.params.screen_mw
        system = (base + core_sum) + sum(cluster_powers)
        # Staged row k covers ``ticks[k]`` trace rows; the staged rows
        # are the trace's last ``sum(ticks)`` rows.
        trace = self._trace
        trace.fill_rows(
            len(trace) - int(ticks.sum()), ticks, busy, little_khz, big_khz,
            wakeups, system, little_sum, big_sum,
        )
