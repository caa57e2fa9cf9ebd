"""Tests for experiment runners (small-scale; full scale in test_paper_claims.py)."""

import pytest

from repro.experiments.common import (
    fixed_governors,
    relative_change_pct,
    run_spec_kernel,
    single_core_config,
)
from repro.experiments.fig02_03_spec import run_spec_comparison
from repro.experiments.fig04_05_corecompare import (
    run_fps_comparison,
    run_latency_comparison,
)
from repro.experiments.fig06_util_power import run_util_power
from repro.experiments.fig07_08_coreconfig import (
    coreconfig_specs,
    run_core_config_sweep,
)
from repro.experiments.fig09_10_freq import run_frequency_residency
from repro.experiments.fig11_12_13_params import (
    param_sweep_specs,
    run_param_sweep,
)
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.table3_4_tlp import run_tlp_tables
from repro.experiments.table5_efficiency import run_efficiency_table
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.runner import BatchRunner, ResultCache
from repro.sched.params import variant_configs
from repro.workloads.spec import spec_benchmark


class TestCommon:
    def test_single_core_configs(self):
        assert single_core_config(CoreType.LITTLE).label() == "L1"
        assert single_core_config(CoreType.BIG).label() == "B1"

    def test_fixed_governors_default_to_max(self):
        chip = exynos5422()
        governors = fixed_governors(chip)
        assert governors[CoreType.LITTLE].freq_khz == 1_300_000
        assert governors[CoreType.BIG].freq_khz == 1_900_000

    def test_relative_change(self):
        assert relative_change_pct(110, 100) == pytest.approx(10.0)
        with pytest.raises(ZeroDivisionError):
            relative_change_pct(1, 0)

    def test_run_spec_kernel_returns_time_and_power(self):
        elapsed, power, trace = run_spec_kernel(
            spec_benchmark("hmmer"), CoreType.LITTLE, 1_300_000
        )
        assert elapsed > 1.0
        assert power > 300.0


class TestFig2and3:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.workloads.spec import SPEC_BENCHMARKS
        picks = [spec_benchmark(n) for n in ("perlbench", "mcf", "hmmer")]
        return run_spec_comparison(benchmarks=picks)

    def test_big_wins_at_equal_frequency(self, result):
        for kernel in result.elapsed_s:
            assert result.speedup(kernel, "big@1.3") > 1.0

    def test_cache_sensitive_kernel_largest_speedup(self, result):
        assert result.speedup("mcf", "big@1.3") > result.speedup("hmmer", "big@1.3")

    def test_low_ilp_loses_at_min_big_frequency(self, result):
        assert result.speedup("perlbench", "big@0.8") < 1.0

    def test_power_ratios_match_paper(self, result):
        assert 2.0 < result.power_ratio("big@1.3") < 2.6
        assert 1.3 < result.power_ratio("big@0.8") < 1.7

    def test_render(self, result):
        out = result.render()
        assert "Figure 2" in out and "Figure 3" in out


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_util_power(
            utilizations=[0.0, 0.5, 1.0],
            freqs_khz={
                CoreType.LITTLE: [500_000, 1_300_000],
                CoreType.BIG: [800_000, 1_900_000],
            },
            sim_seconds=1.0,
        )

    def test_power_rises_with_utilization(self, result):
        for core_type, freqs in result.power_mw.items():
            for freq in freqs:
                series = result.series(core_type, freq)
                assert series == sorted(series)

    def test_slope_steeper_at_high_frequency(self, result):
        assert result.slope_mw(CoreType.LITTLE, 1_300_000) > result.slope_mw(
            CoreType.LITTLE, 500_000
        )
        assert result.slope_mw(CoreType.BIG, 1_900_000) > result.slope_mw(
            CoreType.BIG, 800_000
        )

    def test_big_range_above_little(self, result):
        big_min = min(result.series(CoreType.BIG, 800_000))
        little_series = result.series(CoreType.LITTLE, 1_300_000)
        assert big_min > little_series[0]  # big idle above little idle

    def test_render(self, result):
        assert "Figure 6" in result.render()


class TestAppComparisons:
    def test_latency_comparison_shape(self):
        result = run_latency_comparison(apps=["photo-editor"])
        assert result.latency_reduction_pct["photo-editor"] > 0
        assert result.power_increase_pct["photo-editor"] > 0
        assert "Figure 4" in result.render()

    def test_fps_comparison_shape(self):
        result = run_fps_comparison(apps=["video-player"])
        # HW-decoded video: FPS does not depend on core type.
        assert abs(result.avg_fps_improvement_pct["video-player"]) < 3.0
        assert "Figure 5" in result.render()


class TestCoreConfigSweep:
    def test_single_app_two_configs(self):
        result = run_core_config_sweep(apps=["video-player"], configs=["L2", "L4+B1"])
        perf = result.perf_change_pct["video-player"]
        power = result.power_saving_pct["video-player"]
        # Video playback survives on two little cores...
        assert perf["L2"] > -10.0
        # ...and fewer cores never consume more power than the baseline.
        assert power["L2"] > 0.0
        assert power["L2"] >= power["L4+B1"] - 1.0

    def test_baseline_is_the_param_sweep_baseline(self):
        """On a chip whose full configuration is L4+B4, the Fig 7/8
        baseline is the Fig 11-13 baseline run, under one cache key."""
        for seed in (0, 7):
            core = coreconfig_specs(apps=["photo-editor"], seed=seed)[0]
            params = param_sweep_specs(apps=["photo-editor"], seed=seed)[0]
            assert core.core_config is None
            assert core == params
            assert core.key() == params.key()


class TestStudyBackedExperiments:
    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        cache = ResultCache(root=str(tmp_path_factory.mktemp("study-cache")))
        return BatchRunner(workers=1, cache=cache)

    def test_tlp_tables(self, runner):
        result = run_tlp_tables(apps=["video-player", "encoder"], seed=7, runner=runner)
        assert result.stats["encoder"].big_active_pct > 30.0
        assert result.stats["video-player"].big_active_pct < 5.0
        assert result.matrices["encoder"].sum() == pytest.approx(100.0)
        assert "Table III" in result.render()

    def test_frequency_residency(self, runner):
        result = run_frequency_residency(apps=["video-player"], seed=7, runner=runner)
        little = result.residency[CoreType.LITTLE]["video-player"]
        # Video playback parks the little cluster at low frequencies.
        assert result.low_freq_share(CoreType.LITTLE, "video-player") > 50.0
        assert sum(little.values()) == pytest.approx(100.0)
        assert "Figure 9" in result.render()

    def test_efficiency_table(self, runner):
        result = run_efficiency_table(apps=["video-player"], seed=7, runner=runner)
        b = result.breakdowns["video-player"]
        # The dominant min/<50% finding of the paper.
        assert b.min_pct + b.under_50_pct > 50.0
        assert "Table V" in result.render()


class TestParamSweep:
    def test_single_variant_single_app(self):
        variant = [v for v in variant_configs() if v.name == "interval-100"]
        result = run_param_sweep(apps=["video-player"], variants=variant)
        assert "interval-100" in result.power_saving_pct
        avg, lo, hi = result.power_summary("interval-100")
        assert lo <= avg <= hi
        assert "Figure 11" in result.render()


class TestRegistry:
    def test_all_fifteen_artifacts_registered(self):
        paper_artifacts = {
            "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "fig10", "fig11", "fig12", "fig13",
            "table3", "table4", "table5",
        }
        assert paper_artifacts <= set(EXPERIMENTS)
        extensions = {e for e in EXPERIMENTS if e.startswith("ext-")}
        assert extensions == {
            "ext-tiny", "ext-sched", "ext-governors", "ext-thermal",
            "ext-switching", "ext-energy", "ext-boost", "ext-multitask",
            "ext-gpu",
        }
        assert paper_artifacts | extensions == set(EXPERIMENTS)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_shared_runners(self):
        assert get_experiment("fig2").runner is get_experiment("fig3").runner
        assert get_experiment("table3").runner is get_experiment("table4").runner
