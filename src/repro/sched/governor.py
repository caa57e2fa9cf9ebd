"""CPU-frequency governors — paper Algorithm 2 and fixed baselines.

The **interactive governor** evaluates each cluster every sampling period
(default 20 ms):

- cluster utilization = the maximum per-core busy fraction over the
  period (each cluster shares one frequency, so the busiest core sets
  the demand);
- ``target_freq = freq * util / TARGET_LOAD``;
- if utilization exceeds the up threshold and the cluster is below the
  preset hispeed frequency, jump straight to hispeed (the paper's
  "responsiveness optimization"); above hispeed, scale to target;
- if utilization fell below the down threshold, scale down to target;
- otherwise hold.

Frequencies snap to the cluster's OPP table (smallest point able to
serve the target).  :class:`PerformanceGovernor` and
:class:`FixedFrequencyGovernor` pin frequencies for the architectural
characterization experiments (paper Section III).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import EventBus, FreqChanged, InputBoost
from repro.platform.coretypes import CoreType
from repro.platform.opp import OPPTable
from repro.sched.params import GovernorParams
from repro.sim.core import SimCore


class ClusterFreqDomain:
    """Shared frequency state for all cores of one type."""

    def __init__(self, core_type: CoreType, opp_table: OPPTable, cores: list[SimCore]):
        self.core_type = core_type
        self.opp_table = opp_table
        self.cores = [c for c in cores if c.core_type is core_type and c.enabled]
        self.freq_khz = opp_table.min_khz
        #: Maximum frequency currently allowed (lowered by thermal
        #: throttling; governors' requests are clamped to it).
        self.cap_khz = opp_table.max_khz
        #: Observability bus (installed by ``Simulator.attach_observer``);
        #: ``None`` means transitions are not recorded.
        self.obs: Optional[EventBus] = None
        self.apply()

    def set_freq(self, freq_khz: int, reason: str = "governor") -> None:
        if not self.opp_table.contains(freq_khz):
            raise ValueError(f"{freq_khz} kHz is not an OPP of the {self.core_type} cluster")
        new_khz = min(freq_khz, self.cap_khz)
        if self.obs is not None and new_khz != self.freq_khz:
            self.obs.emit(FreqChanged(
                cluster=self.core_type.value,
                old_khz=self.freq_khz,
                new_khz=new_khz,
                reason=reason,
            ))
        self.freq_khz = new_khz
        self.apply()

    def set_cap(self, cap_khz: int) -> None:
        """Apply a thermal cap; the current frequency is clamped to it."""
        if not self.opp_table.contains(cap_khz):
            raise ValueError(f"{cap_khz} kHz is not an OPP of the {self.core_type} cluster")
        self.cap_khz = cap_khz
        if self.freq_khz > cap_khz:
            if self.obs is not None:
                self.obs.emit(FreqChanged(
                    cluster=self.core_type.value,
                    old_khz=self.freq_khz,
                    new_khz=cap_khz,
                    reason="thermal",
                ))
            self.freq_khz = cap_khz
            self.apply()

    def apply(self) -> None:
        for core in self.cores:
            core.freq_khz = self.freq_khz

    def voltage_v(self) -> float:
        return self.opp_table.voltage_at(self.freq_khz)


#: ``busy_by_core`` of a reference tick, whose cores accrued their own.
_NO_BUSY: dict[int, float] = {}


def _accrued(window_s: float, add: float, n_ticks: int) -> float:
    """``window_s`` after ``n_ticks`` ticks that each add ``add`` busy
    seconds, added one tick at a time (a tight loop, not a product, so
    the sum is bit-exact with per-tick accumulation)."""
    for _ in range(n_ticks):
        window_s += add
    return window_s


def _accrue_windows(
    cores: list[SimCore], busy_by_core: dict[int, float], n_ticks: int
) -> None:
    """Accrue ``n_ticks`` ticks of each core's constant busy seconds into
    its ``busy_in_window_s``."""
    for core in cores:
        add = busy_by_core.get(core.core_id, 0.0)
        if add != 0.0:
            core.busy_in_window_s = _accrued(core.busy_in_window_s, add, n_ticks)


class Governor:
    """Interface: called by the engine once per tick per cluster domain."""

    def start(self, domain: ClusterFreqDomain) -> None:
        raise NotImplementedError

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        raise NotImplementedError

    def tick_span(
        self,
        domain: ClusterFreqDomain,
        start_tick: int,
        n_ticks: int,
        tick_s: float,
        busy_by_core: dict[int, float],
        commit: bool,
    ) -> Optional[list[tuple[int, int]]]:
        """Replay ``n_ticks`` governor ticks from ``start_tick`` over a
        fast-forward span in which every core of the domain accrues a
        constant ``busy_by_core[core_id]`` seconds of execution per tick
        (0.0 for cores not in the mapping; an idle span maps nothing).

        Returns the frequency changes as ``(tick_offset, freq_khz)``
        pairs — the frequency the engine would record at
        ``start_tick + offset`` — or ``None`` if this governor cannot
        replay the span (the engine then steps tick by tick).

        With ``commit=False`` the call must be a pure dry run.  With
        ``commit=True`` the governor applies its post-span counters, the
        domain cores' ``busy_in_window_s`` accumulation/resets, and the
        final frequency (via :meth:`ClusterFreqDomain.set_freq`), all
        bit-exact with the tick-by-tick loop.  A commit for a *shorter*
        span than a preceding dry run is valid: decisions at a window
        boundary depend only on earlier ticks, so the change list of a
        prefix is the prefix of the change list.

        This base version commits only an all-idle domain, by calling
        :meth:`tick` once per span tick: nothing in the domain executes,
        so that is exact for any governor.  Dry runs and busy domains
        return ``None``; governors that override this method opt in to
        busy spans.
        """
        if not commit or any(c.core_id in busy_by_core for c in domain.cores):
            return None
        changes: list[tuple[int, int]] = []
        freq = domain.freq_khz
        for offset in range(n_ticks):
            self.tick(domain, start_tick + offset, tick_s)
            if domain.freq_khz != freq:
                freq = domain.freq_khz
                changes.append((offset, freq))
        return changes


class InteractiveGovernor(Governor):
    """The load-tracking interactive governor (paper Algorithm 2)."""

    def __init__(self, params: GovernorParams):
        self.params = params
        self._sampling_ticks = 0
        self._window_ticks = 0
        self._ticks_since_raise = 0
        self._boost_ticks_left = 0
        #: Optional :class:`repro.runner.sweepfold.SweepWitness`.  When
        #: set, every comparison against the two fold-eligible parameters
        #: (``down_threshold``, ``hold_ms``) is reported to it; those
        #: parameters are read *nowhere else*, which is what makes the
        #: witness a complete equivalence certificate.
        self._witness = None

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.min_khz)
        self._sampling_ticks = max(1, self.params.sampling_ms)
        self._window_ticks = 0
        self._ticks_since_raise = 0
        self._boost_ticks_left = 0
        for core in domain.cores:
            core.busy_in_window_s = 0.0

    def notify_input(self, domain: ClusterFreqDomain) -> None:
        """Touch booster: jump to hispeed and hold it for the boost window."""
        if self.params.input_boost_ms <= 0:
            return
        self._boost_ticks_left = self.params.input_boost_ms
        hispeed = self.hispeed_khz(domain)
        if domain.obs is not None:
            domain.obs.emit(InputBoost(
                cluster=domain.core_type.value, hispeed_khz=hispeed,
            ))
        if domain.freq_khz < hispeed:
            domain.set_freq(hispeed, reason="input-boost")
            self._ticks_since_raise = 0

    def hispeed_khz(self, domain: ClusterFreqDomain) -> int:
        raw = int(self.params.hispeed_fraction * domain.opp_table.max_khz)
        return domain.opp_table.ceil(raw)

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        """One reference tick: the one-tick span.  The engine's executed
        cores have already accrued this tick's busy time into their
        windows, so the span adds none."""
        self.tick_span(domain, tick_index, 1, tick_s, _NO_BUSY, True)

    def _next_freq_value(
        self, domain: ClusterFreqDomain, freq: int, util: float, ticks_since_raise: int
    ) -> int:
        """Algorithm 2's frequency decision as a pure function of explicit
        state, so dry runs can evaluate it without touching the domain."""
        p = self.params
        target = domain.opp_table.ceil(int(freq * util / p.target_load))
        if util > p.target_load:
            if p.hispeed_enabled:
                hispeed = self.hispeed_khz(domain)
                if freq < hispeed:
                    return hispeed
            return max(target, freq)
        w = self._witness
        below = util < p.down_threshold
        if w is not None:
            w.note_down(util, below)
        if below:
            # min_sample_time: a raised frequency is held for a while
            # before scaling down, over-provisioning after bursts.
            # (One engine tick is one millisecond.)
            held = ticks_since_raise < p.hold_ms
            if w is not None:
                w.note_hold(ticks_since_raise, held)
            if held:
                return freq
            return target
        return freq

    def tick_span(
        self,
        domain: ClusterFreqDomain,
        start_tick: int,
        n_ticks: int,
        tick_s: float,
        busy_by_core: dict[int, float],
        commit: bool,
    ) -> Optional[list[tuple[int, int]]]:
        """O(boundaries + busy ticks) span replay (see base docstring);
        the governor's only decision path, :meth:`tick` being its
        one-tick case.

        Between boundaries each tick only increments counters and adds a
        constant to the busy cores' ``busy_in_window_s`` (nothing, in an
        idle span or a reference tick); the additions are replayed as a
        tight scalar loop (not a closed form) so the window sums — and
        therefore every utilization and frequency decision — are
        bit-exact with accumulating them one tick at a time.
        """
        filled = self._window_ticks + n_ticks
        if filled < self._sampling_ticks:
            # No sampling window closes, so there is no decision to make.
            if commit:
                self._window_ticks = filled
                self._ticks_since_raise += n_ticks
                if self._boost_ticks_left > 0:
                    self._boost_ticks_left = max(0, self._boost_ticks_left - n_ticks)
                if busy_by_core:
                    _accrue_windows(domain.cores, busy_by_core, n_ticks)
            return []
        if self._sampling_ticks <= 0:
            raise RuntimeError("InteractiveGovernor ticked before start()")
        witness = self._witness
        if witness is not None and not commit:
            # Dry-run probes revisit decisions the engine later commits
            # through this method (re-evaluated then); recording them
            # here would only narrow the fold interval with comparisons
            # that never shape state.
            self._witness = None
            try:
                return self.tick_span(
                    domain, start_tick, n_ticks, tick_s, busy_by_core, commit
                )
            finally:
                self._witness = witness
        cores = domain.cores
        sampling = self._sampling_ticks
        window_ticks = self._window_ticks
        since_raise = self._ticks_since_raise
        boost = self._boost_ticks_left
        freq = domain.freq_khz
        window = [c.busy_in_window_s for c in cores]
        adds = [busy_by_core.get(c.core_id, 0.0) for c in cores] if busy_by_core else ()
        changes: list[tuple[int, int]] = []
        done = 0
        while done < n_ticks:
            step = min(n_ticks - done, sampling - window_ticks)
            for k, add in enumerate(adds):
                if add != 0.0:
                    window[k] = _accrued(window[k], add, step)
            window_ticks += step
            since_raise += step
            if boost > 0:
                boost = max(0, boost - step)
            done += step
            if window_ticks >= sampling:
                window_s = window_ticks * tick_s
                window_ticks = 0
                if cores:
                    util = max(min(1.0, w / window_s) for w in window)
                    for k in range(len(window)):
                        window[k] = 0.0
                    new_freq = self._next_freq_value(domain, freq, util, since_raise)
                    if boost > 0:
                        new_freq = max(new_freq, self.hispeed_khz(domain))
                    if new_freq > freq:
                        since_raise = 0
                    clamped = min(new_freq, domain.cap_khz)
                    if clamped != freq:
                        freq = clamped
                        changes.append((done - 1, freq))
        if commit:
            self._window_ticks = window_ticks
            self._ticks_since_raise = since_raise
            self._boost_ticks_left = boost
            for k, core in enumerate(cores):
                core.busy_in_window_s = window[k]
            if freq != domain.freq_khz:
                domain.set_freq(freq)
        return changes


class PinnedGovernor(Governor):
    """Base for governors whose per-tick evaluation is a no-op.

    The frequency is chosen once in :meth:`start`; ticking carries no
    state, so a span of any length leaves no decision to replay.
    """

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        return

    def tick_span(
        self,
        domain: ClusterFreqDomain,
        start_tick: int,
        n_ticks: int,
        tick_s: float,
        busy_by_core: dict[int, float],
        commit: bool,
    ) -> Optional[list[tuple[int, int]]]:
        # No decisions to replay; only the cores' window accumulation
        # (never read by a pinned governor, but kept bit-exact so engine
        # state after a span matches the tick-by-tick loop).
        if commit:
            _accrue_windows(domain.cores, busy_by_core, n_ticks)
        return []


class PerformanceGovernor(PinnedGovernor):
    """Pins the cluster at its maximum frequency."""

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.max_khz)


class FixedFrequencyGovernor(PinnedGovernor):
    """Pins the cluster at one chosen OPP (for the Section III sweeps)."""

    def __init__(self, freq_khz: int):
        self.freq_khz = freq_khz

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.ceil(self.freq_khz))


class PowersaveGovernor(PinnedGovernor):
    """Pins the cluster at its minimum frequency."""

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.min_khz)


class OndemandGovernor(Governor):
    """The classic ondemand policy: jump to max on load, step down slowly.

    Evaluates every ``sampling_ms``; if the busiest core's utilization
    exceeds ``up_threshold`` the cluster goes straight to its maximum
    frequency (ondemand's signature move), otherwise the frequency steps
    down proportionally to the measured load with a 20% headroom.
    Included for cross-governor comparisons against ``interactive``.
    """

    def __init__(self, sampling_ms: int = 20, up_threshold: float = 0.80):
        if sampling_ms <= 0:
            raise ValueError(f"sampling_ms must be positive, got {sampling_ms}")
        if not 0.0 < up_threshold <= 1.0:
            raise ValueError(f"up_threshold must be in (0, 1], got {up_threshold}")
        self.sampling_ms = sampling_ms
        self.up_threshold = up_threshold
        self._window_ticks = 0

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.min_khz)
        self._window_ticks = 0
        for core in domain.cores:
            core.busy_in_window_s = 0.0

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        self._window_ticks += 1
        if self._window_ticks < self.sampling_ms:
            return
        window_s = self._window_ticks * tick_s
        self._window_ticks = 0
        if not domain.cores:
            return
        util = max(min(1.0, c.busy_in_window_s / window_s) for c in domain.cores)
        for core in domain.cores:
            core.busy_in_window_s = 0.0
        if util > self.up_threshold:
            domain.set_freq(domain.opp_table.max_khz)
        else:
            # Proportional target with headroom, never above current
            # (down-steps only outside the jump).
            target = domain.opp_table.ceil(
                int(domain.freq_khz * util / self.up_threshold * 1.25)
            )
            domain.set_freq(min(target, domain.freq_khz))


class SchedutilGovernor(Governor):
    """Mainline-Linux-style schedutil: frequency from scheduler load.

    Instead of sampling utilization windows, schedutil derives the
    target directly from the tracked load of the runnable tasks:
    ``f = headroom * (max runqueue load / 1024) * f_max`` evaluated
    every tick, with an optional down-rate limit.  Arrived years after
    the paper's platform; included to show where DVFS went next.
    """

    def __init__(self, headroom: float = 1.25, down_hold_ms: int = 20):
        if headroom < 1.0:
            raise ValueError(f"headroom must be >= 1.0, got {headroom}")
        if down_hold_ms < 0:
            raise ValueError(f"down_hold_ms must be non-negative, got {down_hold_ms}")
        self.headroom = headroom
        self.down_hold_ms = down_hold_ms
        self._ticks_since_raise = 0

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.min_khz)
        self._ticks_since_raise = 0

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        if not domain.cores:
            return
        self._ticks_since_raise += 1
        peak_load = 0.0
        for core in domain.cores:
            for task in core.runqueue:
                if task.load is not None:
                    peak_load = max(peak_load, task.load.value)
        target = domain.opp_table.ceil(
            int(self.headroom * (peak_load / 1024.0) * domain.opp_table.max_khz)
        )
        if target > domain.freq_khz:
            domain.set_freq(target)
            self._ticks_since_raise = 0
        elif target < domain.freq_khz and self._ticks_since_raise >= self.down_hold_ms:
            domain.set_freq(target)


class ConservativeGovernor(Governor):
    """Step-wise governor: one OPP up or down per sample on thresholds."""

    def __init__(
        self,
        sampling_ms: int = 20,
        up_threshold: float = 0.80,
        down_threshold: float = 0.30,
    ):
        if sampling_ms <= 0:
            raise ValueError(f"sampling_ms must be positive, got {sampling_ms}")
        if not 0.0 <= down_threshold < up_threshold <= 1.0:
            raise ValueError(
                f"need 0 <= down < up <= 1, got {down_threshold}/{up_threshold}"
            )
        self.sampling_ms = sampling_ms
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self._window_ticks = 0

    def start(self, domain: ClusterFreqDomain) -> None:
        domain.set_freq(domain.opp_table.min_khz)
        self._window_ticks = 0
        for core in domain.cores:
            core.busy_in_window_s = 0.0

    def tick(self, domain: ClusterFreqDomain, tick_index: int, tick_s: float) -> None:
        self._window_ticks += 1
        if self._window_ticks < self.sampling_ms:
            return
        window_s = self._window_ticks * tick_s
        self._window_ticks = 0
        if not domain.cores:
            return
        util = max(min(1.0, c.busy_in_window_s / window_s) for c in domain.cores)
        for core in domain.cores:
            core.busy_in_window_s = 0.0
        table = domain.opp_table
        if util > self.up_threshold and domain.freq_khz < table.max_khz:
            domain.set_freq(table.ceil(domain.freq_khz + 1))
        elif util < self.down_threshold and domain.freq_khz > table.min_khz:
            domain.set_freq(table.floor(domain.freq_khz - 1))
