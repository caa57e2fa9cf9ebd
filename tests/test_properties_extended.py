"""Property-based tests for the newer modules (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.idleness import idle_period_lengths_ms, idleness_profile
from repro.core.timeline import LEVELS, sparkline
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType, cortex_a15
from repro.platform.perfmodel import WorkClass, throughput_units_per_sec
from repro.platform.thermal import ThermalModel, ThermalParams
from repro.sched.load import LoadTracker
from repro.sim.trace import Trace
from repro.experiments.multiseed import seed_stats

BIG_OPPS = exynos5422().big_cluster.opp_table.frequencies_khz


class TestThermalProperties:
    @given(powers=st.lists(st.floats(0, 10_000), min_size=1, max_size=500))
    @settings(max_examples=50)
    def test_cap_always_a_valid_opp(self, powers):
        model = ThermalModel(ThermalParams(), BIG_OPPS)
        for p in powers:
            cap = model.step(p, 0.01)
            assert cap in BIG_OPPS

    @given(power=st.floats(0, 8000))
    @settings(max_examples=30)
    def test_temperature_bounded_by_steady_state(self, power):
        params = ThermalParams(trip_c=10_000, release_c=9_999)
        model = ThermalModel(params, BIG_OPPS)
        steady = params.ambient_c + power / 1000.0 * params.r_thermal_c_per_w
        hi = max(params.ambient_c, steady)
        lo = min(params.ambient_c, steady)
        for _ in range(1000):
            model.step(power, 0.01)
            assert lo - 1e-6 <= model.temperature_c <= hi + 1e-6

    @given(powers=st.lists(st.floats(0, 10_000), min_size=1, max_size=300))
    @settings(max_examples=30)
    def test_throttle_events_monotone(self, powers):
        model = ThermalModel(ThermalParams(), BIG_OPPS)
        prev = 0
        for p in powers:
            model.step(p, 0.05)
            assert model.throttle_events >= prev
            prev = model.throttle_events


class TestContentionProperties:
    @given(
        n1=st.integers(0, 16),
        n2=st.integers(0, 16),
        work=st.builds(
            WorkClass,
            name=st.just("w"),
            compute_fraction=st.floats(0.05, 1.0),
            wss_kb=st.floats(0, 4096),
        ),
    )
    def test_more_busy_cores_never_speed_things_up(self, n1, n2, work):
        chip = exynos5422()
        lo, hi = sorted((n1, n2))
        t_lo = throughput_units_per_sec(
            cortex_a15(), 1_900_000, work,
            memory_contention=chip.memory_contention(lo),
        )
        t_hi = throughput_units_per_sec(
            cortex_a15(), 1_900_000, work,
            memory_contention=chip.memory_contention(hi),
        )
        assert t_hi <= t_lo + 1e-12


class TestIdlenessProperties:
    @given(pattern=st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_idle_periods_partition_idle_time(self, pattern):
        trace = Trace([CoreType.LITTLE], [True], max_ticks=len(pattern))
        for busy in pattern:
            trace.record([1.0 if busy else 0.0], 500_000, 800_000, 300.0)
        trace.finalize()
        lengths = idle_period_lengths_ms(trace)
        assert lengths.sum() == sum(1 for b in pattern if not b)
        profile = idleness_profile(trace)
        assert 0.0 <= profile.idle_fraction <= 1.0
        assert 0.0 <= profile.deep_idle_share <= 1.0


class TestSparklineProperties:
    @given(
        values=st.lists(st.floats(0, 100), min_size=1, max_size=500),
        width=st.integers(1, 120),
    )
    @settings(max_examples=50)
    def test_output_width_and_alphabet(self, values, width):
        line = sparkline(np.array(values), width, 0.0, 100.0)
        assert len(line) == width
        assert all(ch in LEVELS for ch in line)


class TestSeedStatsProperties:
    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_mean_within_range_and_std_nonnegative(self, values):
        s = seed_stats(values)
        assert min(values) - 1e-6 <= s.mean <= max(values) + 1e-6
        assert s.std >= 0.0
        assert s.n == len(values)

    @given(value=st.floats(-1e6, 1e6), n=st.integers(2, 20))
    def test_constant_values_zero_std(self, value, n):
        s = seed_stats([value] * n)
        assert math.isclose(s.std, 0.0, abs_tol=1e-6)


class TestLoadTrackerAlgebra:
    @given(
        samples=st.lists(st.floats(0, 1024), min_size=1, max_size=50),
        gap=st.integers(0, 200),
    )
    def test_decay_then_update_equals_zero_updates(self, samples, gap):
        """decay(k) followed by update(s) must equal k zero-updates then s."""
        a = LoadTracker(halflife_ms=32)
        b = LoadTracker(halflife_ms=32)
        for s in samples:
            a.advance(s, 1)
            b.advance(s, 1)
        a.decay(gap)
        for _ in range(gap):
            b.advance(0.0, 1)
        a.advance(512.0, 1)
        b.advance(512.0, 1)
        assert math.isclose(a.value, b.value, rel_tol=1e-9, abs_tol=1e-9)
