"""Tests for power breakdown, multi-seed statistics, and the app report."""

import pytest

from repro.core.power_breakdown import power_breakdown
from repro.core.study import run_app
from repro.core.summary import app_report
from repro.platform.chip import ChipSpec, exynos5422
from repro.platform.coretypes import ClusterSpec, CoreType
from repro.experiments.multiseed import (
    across_seeds,
    run_tlp_multiseed,
    seed_stats,
)


class TestPowerBreakdown:
    @pytest.fixture(scope="class")
    def case(self):
        chip = exynos5422(screen_on=True)
        run = run_app("encoder", chip=chip, seed=1)
        return run, chip

    def test_components_sum_to_total(self, case):
        run, chip = case
        b = power_breakdown(run.trace, chip.power_model.params)
        components = (
            b.base_mw + b.screen_mw + b.little_cpu_mw + b.big_cpu_mw + b.uncore_mw
        )
        assert components == pytest.approx(b.total_mw, rel=0.01)

    def test_encoder_is_big_cpu_dominated(self, case):
        run, chip = case
        b = power_breakdown(run.trace, chip.power_model.params)
        assert b.big_share_of_cpu > 0.8
        assert b.big_cpu_mw > b.little_cpu_mw

    def test_light_app_is_little_dominated(self):
        chip = exynos5422(screen_on=True)
        run = run_app("video-player", chip=chip, seed=1, max_seconds=4.0)
        b = power_breakdown(run.trace, chip.power_model.params)
        # Big cluster contributes only idle leakage.
        assert b.little_cpu_mw + 1.0 > b.big_cpu_mw or b.big_share_of_cpu < 0.6

    def test_cpu_power_traces_positive_when_busy(self, case):
        run, _ = case
        big = run.trace.cpu_power_mw(CoreType.BIG)
        assert big.max() > 100.0

    def test_empty_trace(self):
        from repro.sim.trace import Trace
        from repro.platform.power import PowerParams

        trace = Trace([CoreType.LITTLE], [True], max_ticks=1)
        trace.finalize()
        b = power_breakdown(trace, PowerParams())
        assert b.total_mw == 0.0

    def test_render(self, case):
        run, chip = case
        out = power_breakdown(run.trace, chip.power_model.params).render()
        assert "big CPU" in out


class TestSeedStats:
    def test_single_value(self):
        s = seed_stats([5.0])
        assert s.mean == 5.0 and s.std == 0.0 and s.n == 1

    def test_mean_and_std(self):
        s = seed_stats([1.0, 3.0])
        assert s.mean == 2.0
        assert s.std == pytest.approx(2.0 ** 0.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seed_stats([])

    def test_str_format(self):
        assert str(seed_stats([1.0, 3.0])).startswith("2.00±")

    def test_across_seeds_calls_measure(self):
        calls = []

        def measure(seed):
            calls.append(seed)
            return float(seed)

        s = across_seeds(measure, [1, 2, 3])
        assert calls == [1, 2, 3]
        assert s.mean == 2.0


class TestMultiSeedTLP:
    def test_two_apps_two_seeds(self):
        result = run_tlp_multiseed(apps=["video-player", "encoder"], seeds=[0, 1])
        assert result.tlp["encoder"].n == 2
        # Structural facts hold across seeds, with finite spread.
        assert result.big["encoder"].mean > 30.0
        assert result.big["video-player"].mean < 3.0
        assert result.tlp["video-player"].std < 0.5
        assert "±" in result.render()


class TestAppReport:
    @pytest.fixture(scope="class")
    def report(self):
        return app_report("photo-editor", seed=1)

    def test_all_sections_present(self, report):
        out = report.render(timeline_width=40)
        for heading in (
            "TLP statistics", "Active-core distribution",
            "Efficiency decomposition", "power breakdown",
            "Idle-behaviour", "latency distribution",
            "Per-task execution profile", "span:",
        ):
            assert heading in out, heading

    def test_fps_app_omits_latency_distribution(self):
        report = app_report("video-player", seed=1)
        assert report.latency_dist is None
        assert "fps average" in report.render(timeline_width=30)

    def test_header_labels_the_simulated_config(self):
        base = exynos5422(screen_on=True)
        big2 = ClusterSpec(
            spec=base.big_cluster.spec, num_cores=2,
            opp_table=base.big_cluster.opp_table,
        )
        chip = ChipSpec(
            "4L+2B", base.little_cluster, big2,
            power_params=base.power_model.params,
        )
        report = app_report("video-player", chip=chip)
        assert report.run.config_label == "L4+B2"
        assert "=== video-player (fps app, L4+B2) ===" in report.render(
            timeline_width=30
        )

    def test_consistency_between_sections(self, report):
        assert report.energy.total_energy_mj == pytest.approx(
            report.run.energy_mj()
        )
        assert report.tlp.n_windows > 100
