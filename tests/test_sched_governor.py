"""Tests for the interactive frequency governor (paper Algorithm 2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.coretypes import CoreType, cortex_a7
from repro.platform.opp import little_opp_table
from repro.runner.sweepfold import SweepWitness
from repro.sched.governor import (
    ClusterFreqDomain,
    FixedFrequencyGovernor,
    InteractiveGovernor,
    OndemandGovernor,
    PerformanceGovernor,
)
from repro.sched.params import GovernorParams
from repro.sim.core import SimCore

TICK_S = 0.001


def make_domain(n_cores=2):
    table = little_opp_table()
    cores = [
        SimCore(i, cortex_a7(), enabled=True, max_freq_khz=table.max_khz)
        for i in range(n_cores)
    ]
    return ClusterFreqDomain(CoreType.LITTLE, table, cores), cores


def feed(governor, domain, cores, busy_fraction, ticks):
    """Advance ``ticks``, reporting ``busy_fraction`` on core 0."""
    for t in range(ticks):
        cores[0].busy_in_window_s += busy_fraction * TICK_S
        governor.tick(domain, t, TICK_S)


class TestClusterFreqDomain:
    def test_applies_frequency_to_cores(self):
        domain, cores = make_domain()
        domain.set_freq(1_000_000)
        assert all(c.freq_khz == 1_000_000 for c in cores)

    def test_rejects_non_opp(self):
        domain, _ = make_domain()
        with pytest.raises(ValueError):
            domain.set_freq(999_999)

    def test_voltage_tracks_frequency(self):
        domain, _ = make_domain()
        v_min = domain.voltage_v()
        domain.set_freq(1_300_000)
        assert domain.voltage_v() > v_min


class TestInteractiveGovernor:
    def test_starts_at_min(self):
        domain, _ = make_domain()
        gov = InteractiveGovernor(GovernorParams())
        gov.start(domain)
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_no_decision_before_sampling_period(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=19)
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_hispeed_jump_on_high_load(self):
        domain, cores = make_domain()
        params = GovernorParams(sampling_ms=20)
        gov = InteractiveGovernor(params)
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=20)
        assert domain.freq_khz == gov.hispeed_khz(domain)

    def test_scales_above_hispeed_when_still_loaded(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=40)
        assert domain.freq_khz == domain.opp_table.max_khz

    def test_holds_frequency_in_dead_band(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        domain.set_freq(1_000_000)
        feed(gov, domain, cores, 0.5, ticks=20)  # between down (0.35) and target (0.70)
        assert domain.freq_khz == 1_000_000

    def test_scales_down_on_low_load(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        domain.set_freq(1_300_000)
        # Enough samples to pass the 80ms min-sample-time hold.
        feed(gov, domain, cores, 0.1, ticks=120)
        assert domain.freq_khz < 1_300_000

    def test_idle_falls_to_min(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        domain.set_freq(1_300_000)
        feed(gov, domain, cores, 0.0, ticks=120)
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_hold_delays_downscale(self):
        """min_sample_time: a just-raised frequency resists downscaling."""
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20, hold_ms=80))
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=20)  # burst -> hispeed raise
        raised = domain.freq_khz
        assert raised > domain.opp_table.min_khz
        feed(gov, domain, cores, 0.0, ticks=40)  # idle, but inside hold
        assert domain.freq_khz == raised
        feed(gov, domain, cores, 0.0, ticks=80)  # hold expired
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_hispeed_can_be_disabled(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20, hispeed_enabled=False))
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=20)
        # Without the jump the first raise is proportional from min.
        assert domain.freq_khz < gov.hispeed_khz(domain)
        assert domain.freq_khz > domain.opp_table.min_khz

    def test_cluster_util_is_max_over_cores(self):
        domain, cores = make_domain(n_cores=2)
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        # Busy on core 1 only must still drive the shared frequency.
        for t in range(20):
            cores[1].busy_in_window_s += 1.0 * TICK_S
            gov.tick(domain, t, TICK_S)
        assert domain.freq_khz > domain.opp_table.min_khz

    def test_longer_interval_reacts_slower(self):
        for sampling, expect_raised in ((20, True), (100, False)):
            domain, cores = make_domain()
            gov = InteractiveGovernor(GovernorParams(sampling_ms=sampling))
            gov.start(domain)
            feed(gov, domain, cores, 1.0, ticks=50)
            raised = domain.freq_khz > domain.opp_table.min_khz
            assert raised is expect_raised

    def test_window_resets_after_sample(self):
        domain, cores = make_domain()
        gov = InteractiveGovernor(GovernorParams(sampling_ms=20))
        gov.start(domain)
        feed(gov, domain, cores, 1.0, ticks=20)
        assert cores[0].busy_in_window_s == 0.0


class TestNotStarted:
    def test_tick_before_start_raises(self):
        domain, _ = make_domain()
        gov = InteractiveGovernor(GovernorParams())
        with pytest.raises(RuntimeError, match="before start"):
            gov.tick(domain, 0, TICK_S)
        with pytest.raises(RuntimeError, match="before start"):
            gov.tick_span(domain, 0, 40, TICK_S, {}, commit=False)


_OPPS = sorted(little_opp_table().frequencies_khz)

#: One piece of a piecewise-constant schedule: its length, each core's
#: busy seconds per tick, an input boost before it, and a thermal cap
#: set before it (``None`` keeps the current cap).
_pieces = st.lists(
    st.tuples(
        st.integers(1, 90),
        st.lists(
            st.sampled_from([0.0, TICK_S, TICK_S / 3, 0.0004, 0.00095]),
            min_size=3, max_size=3,
        ),
        st.booleans(),
        st.one_of(st.none(), st.sampled_from(_OPPS)),
    ),
    min_size=1, max_size=12,
)


def _state(gov, domain):
    state = {
        "freq": domain.freq_khz,
        "cap": domain.cap_khz,
        "windows": [c.busy_in_window_s for c in domain.cores],
        "core_freqs": [c.freq_khz for c in domain.cores],
    }
    for name in ("_window_ticks", "_ticks_since_raise", "_boost_ticks_left"):
        if hasattr(gov, name):
            state[name] = getattr(gov, name)
    witness = getattr(gov, "_witness", None)
    if witness is not None:
        state["witness"] = (
            witness.dn_gt, witness.dn_le, witness.hold_lo, witness.hold_hi,
        )
    return state


class TestSpanCommitEqualsSteps:
    """Committing a piece with ``tick_span`` leaves the state that
    stepping it one tick at a time does, as the engine's fast-forward
    relies on."""

    @staticmethod
    def _check(make_governor, pieces, idle_only=False):
        span_domain, _ = make_domain(3)
        step_domain, _ = make_domain(3)
        span_gov, step_gov = make_governor(), make_governor()
        if isinstance(span_gov, InteractiveGovernor):
            span_gov._witness, step_gov._witness = SweepWitness(), SweepWitness()
        span_gov.start(span_domain)
        step_gov.start(step_domain)
        tick = 0
        for n, busy, boost, cap in pieces:
            busy_by_core = {
                core_id: b for core_id, b in enumerate(busy)
                if b and not idle_only
            }
            for gov, domain in ((span_gov, span_domain), (step_gov, step_domain)):
                if boost:
                    getattr(gov, "notify_input", lambda d: None)(domain)
                if cap is not None:
                    domain.set_cap(cap)

            before = _state(span_gov, span_domain)
            dry = span_gov.tick_span(
                span_domain, tick, n, TICK_S, busy_by_core, commit=False
            )
            assert _state(span_gov, span_domain) == before  # a pure dry run
            changes = span_gov.tick_span(
                span_domain, tick, n, TICK_S, busy_by_core, commit=True
            )
            if dry is not None:
                assert dry == changes

            stepped = []
            for offset in range(n):
                for core in step_domain.cores:
                    core.busy_in_window_s += busy_by_core.get(core.core_id, 0.0)
                freq = step_domain.freq_khz
                step_gov.tick(step_domain, tick + offset, TICK_S)
                if step_domain.freq_khz != freq:
                    stepped.append((offset, step_domain.freq_khz))
            assert changes == stepped
            assert _state(span_gov, span_domain) == _state(step_gov, step_domain)
            tick += n

    @settings(max_examples=60, deadline=None)
    @given(
        pieces=_pieces,
        sampling_ms=st.integers(1, 30),
        down_threshold=st.sampled_from([0.2, 0.35, 0.5, 0.65]),
        hold_ms=st.integers(0, 120),
        input_boost_ms=st.sampled_from([0, 15, 80]),
        hispeed_enabled=st.booleans(),
    )
    def test_interactive(
        self, pieces, sampling_ms, down_threshold, hold_ms, input_boost_ms,
        hispeed_enabled,
    ):
        params = GovernorParams(
            sampling_ms=sampling_ms, down_threshold=down_threshold,
            hold_ms=hold_ms, input_boost_ms=input_boost_ms,
            hispeed_enabled=hispeed_enabled,
        )
        self._check(lambda: InteractiveGovernor(params), pieces)

    @settings(max_examples=20, deadline=None)
    @given(pieces=_pieces, freq=st.sampled_from(_OPPS))
    def test_pinned(self, pieces, freq):
        self._check(lambda: FixedFrequencyGovernor(freq), pieces)

    @settings(max_examples=20, deadline=None)
    @given(pieces=_pieces, sampling_ms=st.integers(1, 30))
    def test_ondemand_idle(self, pieces, sampling_ms):
        self._check(
            lambda: OndemandGovernor(sampling_ms=sampling_ms), pieces,
            idle_only=True,
        )


class TestFixedGovernors:
    def test_performance_pins_max(self):
        domain, _ = make_domain()
        gov = PerformanceGovernor()
        gov.start(domain)
        assert domain.freq_khz == domain.opp_table.max_khz
        gov.tick(domain, 0, TICK_S)
        assert domain.freq_khz == domain.opp_table.max_khz

    def test_fixed_snaps_to_opp(self):
        domain, _ = make_domain()
        gov = FixedFrequencyGovernor(950_000)
        gov.start(domain)
        assert domain.freq_khz == 1_000_000
