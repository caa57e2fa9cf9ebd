"""Tests for the calibrated power model."""

import numpy as np
import pytest

from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.platform.power import (
    CorePowerParams,
    DeferredPowerPipeline,
    PowerModel,
    PowerParams,
)
from repro.sim.trace import Trace


@pytest.fixture
def chip():
    return exynos5422()


def system_power(chip, core_type, freq_khz, util=1.0):
    pm = chip.power_model
    table = chip.cluster(core_type).opp_table
    core = pm.core_power_mw(core_type, freq_khz, table.voltage_at(freq_khz), util)
    clusters = [
        pm.cluster_power_mw(CoreType.LITTLE, True),
        pm.cluster_power_mw(CoreType.BIG, True),
    ]
    return pm.system_power_mw([core], clusters)


class TestCorePowerParams:
    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            CorePowerParams(static_mw_per_v=-1, dyn_mw_per_v2ghz=100)

    def test_rejects_bad_idle_fraction(self):
        with pytest.raises(ValueError):
            CorePowerParams(10, 100, idle_static_fraction=1.5)


class TestCorePower:
    def test_rejects_bad_busy_fraction(self, chip):
        with pytest.raises(ValueError):
            chip.power_model.core_power_mw(CoreType.LITTLE, 500_000, 0.9, 1.5)

    def test_idle_cheaper_than_busy(self, chip):
        pm = chip.power_model
        idle = pm.core_power_mw(CoreType.BIG, 1_900_000, 1.35, 0.0)
        busy = pm.core_power_mw(CoreType.BIG, 1_900_000, 1.35, 1.0)
        assert idle < busy / 3

    def test_power_linear_in_utilization(self, chip):
        pm = chip.power_model
        p0 = pm.core_power_mw(CoreType.LITTLE, 1_300_000, 1.2, 0.0)
        p5 = pm.core_power_mw(CoreType.LITTLE, 1_300_000, 1.2, 0.5)
        p10 = pm.core_power_mw(CoreType.LITTLE, 1_300_000, 1.2, 1.0)
        assert p5 - p0 == pytest.approx(p10 - p5)

    def test_activity_factor_scales_dynamic_power(self, chip):
        pm = chip.power_model
        base = pm.core_power_mw(CoreType.BIG, 1_300_000, 1.1, 1.0, activity_factor=1.0)
        hot = pm.core_power_mw(CoreType.BIG, 1_300_000, 1.1, 1.0, activity_factor=1.2)
        assert hot > base


class TestPaperCalibration:
    """Power ratios the paper reports for SPEC at full utilization."""

    def test_big_at_equal_frequency_about_2_3x(self, chip):
        little = system_power(chip, CoreType.LITTLE, 1_300_000)
        big = system_power(chip, CoreType.BIG, 1_300_000)
        assert 2.0 < big / little < 2.6

    def test_big_at_min_frequency_about_1_5x(self, chip):
        little = system_power(chip, CoreType.LITTLE, 1_300_000)
        big = system_power(chip, CoreType.BIG, 800_000)
        assert 1.3 < big / little < 1.7

    def test_fig6_slope_steeper_at_high_frequency(self, chip):
        """Figure 6: power is more utilization-sensitive at high clocks."""
        pm = chip.power_model
        table = chip.little_cluster.opp_table
        def slope(freq):
            v = table.voltage_at(freq)
            return (pm.core_power_mw(CoreType.LITTLE, freq, v, 1.0)
                    - pm.core_power_mw(CoreType.LITTLE, freq, v, 0.0))
        assert slope(1_300_000) > 2.0 * slope(500_000)

    def test_fig6_big_little_ranges_separated(self, chip):
        """Figure 6: at any matching utilization, even the slowest big
        core draws more than the fastest little core."""
        for util in (0.25, 0.5, 0.75, 1.0):
            big_min = system_power(chip, CoreType.BIG, 800_000, util=util)
            little_max = system_power(chip, CoreType.LITTLE, 1_300_000, util=util)
            assert big_min > little_max


class TestSystemPower:
    def test_screen_power_added(self):
        params = PowerParams(screen_mw=1000.0)
        pm = PowerModel(params)
        assert pm.system_power_mw([], []) == pytest.approx(1300.0)

    def test_disabled_cluster_draws_nothing(self, chip):
        assert chip.power_model.cluster_power_mw(CoreType.BIG, False) == 0.0


class TestDeferredPowerPipeline:
    """One staged n-tick row is n staged 1-tick rows."""

    # Four little cores then four big ones, one of each disabled.
    CORE_TYPES = [CoreType.LITTLE] * 4 + [CoreType.BIG] * 4
    ENABLED = [True, True, True, False, True, True, False, True]

    def _pipeline(self, chip, n_ticks):
        trace = Trace(self.CORE_TYPES, self.ENABLED, max_ticks=n_ticks)
        pipeline = DeferredPowerPipeline(
            chip.power_model, trace, self.CORE_TYPES, self.ENABLED,
            {
                CoreType.LITTLE: chip.little_cluster.opp_table,
                CoreType.BIG: chip.big_cluster.opp_table,
            },
        )
        # Small enough that both sides flush mid-sequence.
        pipeline._FLUSH_THRESHOLD = 3
        return trace, pipeline

    def test_multi_tick_rows_match_one_tick_rows(self, chip):
        rng = np.random.default_rng(0)
        little = sorted(chip.little_cluster.opp_table.frequencies_khz)
        big = sorted(chip.big_cluster.opp_table.frequencies_khz)
        n_enabled = sum(self.ENABLED)
        rows = []
        for ticks in (1, 5, 3, 1, 8, 2, 4):
            busy = [
                float(rng.choice([0.0, 1.0, rng.random()])) if on else 0.0
                for on in self.ENABLED
            ]
            afs = [float(rng.uniform(0.5, 1.5)) for _ in range(n_enabled)]
            deeps = [bool(rng.random() < 0.5) for _ in range(n_enabled)]
            rows.append((
                busy, afs, deeps, int(rng.choice(little)), int(rng.choice(big)),
                int(rng.integers(0, 5)), ticks,
            ))
        n_ticks = sum(row[-1] for row in rows)

        block_trace, blocks = self._pipeline(chip, n_ticks)
        for k, row in enumerate(rows):
            blocks.stage(*row)
            assert len(block_trace) == sum(r[-1] for r in rows[: k + 1])
            if k == 2:
                assert not blocks._rows  # rows 0-2 flushed, 3-6 not yet
        blocks.flush()

        tick_trace, ticks_pipe = self._pipeline(chip, n_ticks)
        for *inputs, ticks in rows:
            for _ in range(ticks):
                ticks_pipe.stage(*inputs)
        ticks_pipe.flush()

        assert np.all(block_trace.power_mw > 0.0)
        assert np.array_equal(block_trace.power_mw, tick_trace.power_mw)
        assert np.array_equal(block_trace.busy, tick_trace.busy)
        assert np.array_equal(block_trace.wakeups, tick_trace.wakeups)
        for core_type in (CoreType.LITTLE, CoreType.BIG):
            assert np.array_equal(
                block_trace.cpu_power_mw(core_type),
                tick_trace.cpu_power_mw(core_type),
            )
            assert np.array_equal(
                block_trace.freq_khz(core_type), tick_trace.freq_khz(core_type)
            )
        # Every column holds the staged inputs, one row per tick.
        expected_busy = np.repeat(
            np.asarray([r[0] for r in rows], dtype=np.float32),
            [r[-1] for r in rows], axis=0,
        ).T
        assert np.array_equal(block_trace.busy, expected_busy)
        assert np.array_equal(
            block_trace.wakeups, np.repeat([r[5] for r in rows], [r[-1] for r in rows])
        )
