"""Tests for the geometric load tracker (paper Algorithm 1 core)."""

import pytest

from repro.sched.load import LoadTracker, decay_per_tick
from repro.units import LOAD_SCALE


class TestDecayFactor:
    def test_halflife_semantics(self):
        # After exactly one half-life of ticks the weight is 50%.
        d = decay_per_tick(32.0)
        assert d**32 == pytest.approx(0.5)

    def test_rejects_nonpositive_halflife(self):
        with pytest.raises(ValueError):
            decay_per_tick(0.0)


class TestLoadTracker:
    def test_converges_to_constant_sample(self):
        tracker = LoadTracker(halflife_ms=32)
        for _ in range(500):
            tracker.advance(700.0, 1)
        assert tracker.value == pytest.approx(700.0, abs=0.5)

    def test_paper_weighting_32ms_ago_counts_half(self):
        """A 1ms load from 32ms ago is weighted 50% relative to now."""
        tracker = LoadTracker(halflife_ms=32)
        tracker.advance(LOAD_SCALE, 1)
        peak = tracker.value
        for _ in range(32):
            tracker.advance(0.0, 1)
        assert tracker.value == pytest.approx(peak * 0.5, rel=1e-6)

    def test_double_weight_decays_slower(self):
        # Saturate both trackers, then let them age: the longer
        # half-life (the paper's "2x history weight") retains more.
        fast = LoadTracker(halflife_ms=16, initial=float(LOAD_SCALE))
        slow = LoadTracker(halflife_ms=64, initial=float(LOAD_SCALE))
        fast.decay(16)
        slow.decay(16)
        assert fast.value == pytest.approx(LOAD_SCALE / 2)
        assert fast.value < slow.value

    def test_shorter_halflife_reacts_faster(self):
        fast = LoadTracker(halflife_ms=16)
        slow = LoadTracker(halflife_ms=64)
        for _ in range(8):
            fast.advance(LOAD_SCALE, 1)
            slow.advance(LOAD_SCALE, 1)
        assert fast.value > slow.value

    def test_sleep_decay_matches_explicit_zero_samples(self):
        """decay(k) equals k updates of 0 (no-sample aging)."""
        a = LoadTracker(halflife_ms=32, initial=800.0)
        b = LoadTracker(halflife_ms=32, initial=800.0)
        a.decay(50)
        for _ in range(50):
            b.advance(0.0, 1)
        assert a.value == pytest.approx(b.value)

    def test_duty_cycle_convergence(self):
        """A task busy 30% of the time converges to ~30% load — the
        property that makes utilization-based scheduling work."""
        tracker = LoadTracker(halflife_ms=32)
        for _ in range(300):  # 300 cycles of 3ms busy / 7ms sleep
            for _ in range(3):
                tracker.advance(LOAD_SCALE, 1)
            tracker.decay(7)
        assert tracker.value / LOAD_SCALE == pytest.approx(0.3, abs=0.12)

    def test_bounds_enforced(self):
        tracker = LoadTracker()
        with pytest.raises(ValueError):
            tracker.advance(-1.0, 1)
        with pytest.raises(ValueError):
            tracker.advance(LOAD_SCALE + 1, 1)
        with pytest.raises(ValueError):
            tracker.decay(-1)
        with pytest.raises(ValueError):
            LoadTracker(initial=2000.0)

    def test_reset(self):
        tracker = LoadTracker(initial=500.0)
        tracker.reset(100.0)
        assert tracker.value == 100.0

    def test_value_never_exceeds_scale(self):
        tracker = LoadTracker()
        for _ in range(1000):
            tracker.advance(LOAD_SCALE, 1)
        assert tracker.value <= LOAD_SCALE


class TestAdvance:
    """``advance(s, n)`` is the fast-forward twin of ``n`` one-tick advances."""

    @pytest.mark.parametrize("sample", [0.0, 137.5, 700.0, float(LOAD_SCALE)])
    @pytest.mark.parametrize("ticks", [1, 33, 257])
    def test_bit_exact_vs_repeated_update(self, sample, ticks):
        a = LoadTracker(halflife_ms=32, initial=413.0)
        b = LoadTracker(halflife_ms=32, initial=413.0)
        for _ in range(ticks):
            a.advance(sample, 1)
        b.advance(sample, ticks)
        assert a.value == b.value  # exact, no tolerance

    def test_zero_ticks_is_identity(self):
        t = LoadTracker(halflife_ms=32, initial=512.0)
        assert t.advance(700.0, 0) == 512.0

    def test_rejects_bad_arguments(self):
        t = LoadTracker(halflife_ms=32)
        with pytest.raises(ValueError):
            t.advance(-1.0, 5)
        with pytest.raises(ValueError):
            t.advance(float(LOAD_SCALE) + 1, 5)
        with pytest.raises(ValueError):
            t.advance(100.0, -1)


class TestDecayDrift:
    """``decay(n)`` uses the closed-form power; bound its drift against
    the iterative ``advance(0, 1)`` ladder it stands in for."""

    @pytest.mark.parametrize("ticks", [1, 32, 1000, 60_000])
    def test_drift_within_float_noise(self, ticks):
        iterative = LoadTracker(halflife_ms=32, initial=1000.0)
        closed = LoadTracker(halflife_ms=32, initial=1000.0)
        for _ in range(ticks):
            iterative.advance(0.0, 1)
        closed.decay(ticks)
        # Each iterative step rounds once (~half an ulp), so the paths
        # diverge by at most ~ticks ulps relative — far below any
        # scheduler threshold granularity.
        if iterative.value > 0.0:
            assert closed.value == pytest.approx(iterative.value, rel=1e-10)
        else:
            assert closed.value <= 5e-324 * 10  # both underflowed to ~0

    def test_single_tick_decay_is_exact(self):
        a = LoadTracker(halflife_ms=32, initial=777.0)
        b = LoadTracker(halflife_ms=32, initial=777.0)
        a.advance(0.0, 1)
        b.decay(1)
        assert a.value == b.value
