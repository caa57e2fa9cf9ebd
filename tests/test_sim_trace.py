"""Tests for trace recording and windowed accessors."""

import numpy as np
import pytest

from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace

TYPES = [CoreType.LITTLE] * 2 + [CoreType.BIG] * 2
ENABLED = [True, True, True, False]


def make_trace(n_ticks=100) -> Trace:
    trace = Trace(TYPES, ENABLED, max_ticks=n_ticks + 10)
    for i in range(n_ticks):
        busy = [1.0 if i % 2 == 0 else 0.0, 0.5, 0.0, 0.0]
        trace.record(busy, 600_000, 800_000, 500.0 + i)
    trace.finalize()
    return trace


class TestConstruction:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trace(TYPES, [True], max_ticks=10)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            Trace(TYPES, ENABLED, max_ticks=0)

    def test_capacity_enforced(self):
        trace = Trace(TYPES, ENABLED, max_ticks=1)
        trace.record([0, 0, 0, 0], 500_000, 800_000, 300.0)
        with pytest.raises(RuntimeError):
            trace.record([0, 0, 0, 0], 500_000, 800_000, 300.0)


class TestAccessors:
    def test_len_and_duration(self):
        trace = make_trace(100)
        assert len(trace) == 100
        assert trace.duration_s == pytest.approx(0.1)

    def test_freq_per_cluster(self):
        trace = make_trace(10)
        assert (trace.freq_khz(CoreType.LITTLE) == 600_000).all()
        assert (trace.freq_khz(CoreType.BIG) == 800_000).all()

    def test_cores_of_type(self):
        trace = make_trace(1)
        assert trace.cores_of_type(CoreType.LITTLE) == [0, 1]
        assert trace.cores_of_type(CoreType.BIG) == [2, 3]
        assert trace.enabled_cores_of_type(CoreType.BIG) == [2]

    def test_energy_integrates_power(self):
        trace = make_trace(100)
        # Energy (mJ) = mean power (mW) * duration (s).
        assert trace.energy_mj() == pytest.approx(
            trace.average_power_mw() * trace.duration_s
        )


class TestWindows:
    def test_active_samples_any_execution_counts(self):
        trace = make_trace(100)
        active = trace.active_samples(window_ms=10)
        assert active.shape == (4, 10)
        # Core 0 alternates per tick: active in every 10ms window.
        assert active[0].all()
        # Core 2 never ran.
        assert not active[2].any()

    def test_window_utilization_averages(self):
        trace = make_trace(100)
        util = trace.window_utilization(window_ms=10)
        assert util[0].mean() == pytest.approx(0.5)
        assert util[1].mean() == pytest.approx(0.5)

    def test_window_freq_samples_window_starts(self):
        trace = make_trace(100)
        freqs = trace.window_freq_khz(CoreType.LITTLE, window_ms=10)
        assert freqs.shape == (10,)
        assert (freqs == 600_000).all()

    def test_partial_window_dropped(self):
        trace = make_trace(95)
        assert trace.active_samples(10).shape[1] == 9


class TestTrimmed:
    def test_trim_removes_warmup(self):
        trace = make_trace(100)
        trimmed = trace.trimmed(0.05)
        assert len(trimmed) == 50
        assert trimmed.duration_s == pytest.approx(0.05)

    def test_trim_preserves_alignment(self):
        trace = make_trace(100)
        trimmed = trace.trimmed(0.03)
        np.testing.assert_array_equal(trimmed.busy, trace.busy[:, 30:])
        np.testing.assert_array_equal(trimmed.power_mw, trace.power_mw[30:])

    def test_trim_beyond_length_yields_empty(self):
        trace = make_trace(10)
        assert len(trace.trimmed(10.0)) == 0

    def test_trim_rejects_negative(self):
        with pytest.raises(ValueError):
            make_trace(10).trimmed(-1.0)

    def test_trim_zero_is_identity(self):
        trace = make_trace(20)
        assert len(trace.trimmed(0.0)) == 20


class TestTrimmedAliasing:
    """``trimmed()`` is documented as an aliasing view, not a copy."""

    def test_view_shares_parent_storage(self):
        trace = make_trace(100)
        view = trace.trimmed(0.02)
        assert np.shares_memory(view.busy, trace.busy)
        assert np.shares_memory(view.power_mw, trace.power_mw)
        assert np.shares_memory(view.wakeups, trace.wakeups)

    def test_parent_mutation_is_visible_through_view(self):
        trace = make_trace(100)
        view = trace.trimmed(0.02)  # skips 20 ticks
        trace.fill_rows(50, *row_columns(busy=[0.0] * 4, power=9999.0))
        assert view.power_mw[30] == np.float32(9999.0)

    def test_view_is_finalized_and_costs_no_copy(self):
        trace = make_trace(100)
        view = trace.trimmed(0.05)
        assert view._finalized
        assert len(view) == 50
        assert view.busy.base is not None  # a slice, not an owner


class TestFillPower:
    """The deferred backfill of reserved rows matches the per-tick cast."""

    def test_matches_record_float32_cast(self):
        value = 123.456789  # not exactly representable in float32
        busy = [1 / 3, 0.1, 2 / 3, 0.0]
        a = Trace(TYPES, ENABLED, max_ticks=4)
        for wakeups in (3, 4):
            a.record(busy, 600_000, 800_000, value, wakeups=wakeups,
                     little_cpu_mw=value / 3, big_cpu_mw=value / 7)
        a.finalize()
        b = Trace(TYPES, ENABLED, max_ticks=4)
        b.reserve(2)
        b.fill_rows(
            0, [1, 1], [busy, busy], [600_000] * 2, [800_000] * 2, [3, 4],
            [value] * 2, [value / 3] * 2, [value / 7] * 2,
        )
        b.finalize()
        assert np.array_equal(a.busy, b.busy)
        assert np.array_equal(a.power_mw, b.power_mw)
        assert np.array_equal(a.wakeups, b.wakeups)
        for ct in (CoreType.LITTLE, CoreType.BIG):
            assert np.array_equal(a.freq_khz(ct), b.freq_khz(ct))
            assert np.array_equal(a.cpu_power_mw(ct), b.cpu_power_mw(ct))

    def test_rejects_unrecorded_index(self):
        trace = Trace(TYPES, ENABLED, max_ticks=10)
        trace.reserve(1)
        with pytest.raises(IndexError, match="beyond recorded length"):
            trace.fill_rows(5, *row_columns(busy=[0.0] * 4, power=1.0))
        with pytest.raises(RuntimeError, match="capacity exceeded"):
            trace.reserve(10)
        assert len(trace) == 1

    def test_empty_indices_is_noop(self):
        trace = make_trace(10)
        empty = np.asarray([], dtype=np.float64)
        trace.fill_rows(10, [], np.zeros((0, 4)), empty, empty, empty, empty,
                        empty, empty)
        assert len(trace) == 10


def row_columns(busy, power):
    """``fill_rows`` arguments after the start index for one row."""
    return [1], [busy], [600_000], [800_000], [0], [power], [1.0], [2.0]
