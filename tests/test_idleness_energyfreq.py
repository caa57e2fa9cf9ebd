"""Tests for idle-behaviour analysis and the energy-frequency extension."""

import numpy as np
import pytest

from repro.core.idleness import idle_period_lengths_ms, idleness_profile
from repro.core.reductions import WARMUP_S
from repro.core.study import run_app
from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace
from repro.experiments.ext_energy_freq import run_energy_frequency_sweep

TYPES = [CoreType.LITTLE] * 2 + [CoreType.BIG] * 2


def trace_from_busy(pattern, wakeups=None):
    trace = Trace(TYPES, [True] * 4, max_ticks=len(pattern))
    for i, level in enumerate(pattern):
        w = wakeups[i] if wakeups else 0
        trace.record([level, 0, 0, 0], 500_000, 800_000, 400.0, wakeups=w)
    trace.finalize()
    return trace


class TestIdlePeriods:
    def test_detects_runs(self):
        pattern = [1, 0, 0, 0, 1, 1, 0, 0]  # idle runs: 3 and 2 ticks
        lengths = idle_period_lengths_ms(trace_from_busy(pattern))
        assert sorted(lengths.tolist()) == [2.0, 3.0]

    def test_all_busy(self):
        assert idle_period_lengths_ms(trace_from_busy([1] * 5)).size == 0

    def test_all_idle_single_period(self):
        lengths = idle_period_lengths_ms(trace_from_busy([0] * 7))
        assert lengths.tolist() == [7.0]

    def test_profile_fields(self):
        pattern = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]
        trace = trace_from_busy(pattern, wakeups=[0] * 15 + [3])
        profile = idleness_profile(trace, deep_entry_ms=10.0)
        assert profile.idle_periods == 2
        assert profile.idle_fraction == pytest.approx(13 / 16)
        # The 11-tick period qualifies for deep idle; the 2-tick one not.
        assert profile.deep_idle_share == pytest.approx(11 / 13)
        assert profile.wakeups_per_second == pytest.approx(3 / 0.016)

    def test_wakeup_rate_from_real_run(self):
        run = run_app("video-player", seed=2, max_seconds=4.0)
        profile = idleness_profile(run.trace.trimmed(WARMUP_S))
        # The 30fps pipeline + audio + decoder wake at tens of Hz.
        assert 50.0 < profile.wakeups_per_second < 1000.0
        assert "wakeups/s" in profile.render()

    def test_empty_trace(self):
        trace = Trace(TYPES, [True] * 4, max_ticks=1)
        trace.finalize()
        profile = idleness_profile(trace)
        assert profile.idle_periods == 0
        assert profile.wakeups_per_second == 0.0


class TestEnergyFrequencySweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_energy_frequency_sweep(total_units=1.0, seed=2)

    def test_covers_all_opps(self, result):
        assert len(result.energy_mj[CoreType.LITTLE]) == 9
        assert len(result.energy_mj[CoreType.BIG]) == 12

    def test_elapsed_decreases_with_frequency(self, result):
        for core_type in (CoreType.LITTLE, CoreType.BIG):
            table = result.elapsed_s[core_type]
            ordered = [table[f] for f in sorted(table)]
            assert all(b <= a + 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_big_energy_curve_is_u_shaped(self, result):
        """Dynamic power eventually overtakes race-to-idle savings."""
        table = result.energy_mj[CoreType.BIG]
        freqs = sorted(table)
        optimum = result.optimal_khz(CoreType.BIG)
        assert freqs[0] < optimum < freqs[-1]
        assert table[freqs[0]] > table[optimum]
        assert table[freqs[-1]] > table[optimum]

    def test_little_beats_big_on_energy(self, result):
        """The energy-efficiency premise of the little cores."""
        best_little = min(result.energy_mj[CoreType.LITTLE].values())
        best_big = min(result.energy_mj[CoreType.BIG].values())
        assert best_little < best_big

    def test_render(self, result):
        assert "optimum" in result.render()
