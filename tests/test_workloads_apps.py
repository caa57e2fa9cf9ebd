"""Tests for the 12 mobile app models, SPEC kernels, and microbenchmark."""

import pytest

from repro.core.study import run_app
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.sim.engine import SimConfig, Simulator
from repro.experiments.common import fixed_governors, single_core_config
from repro.workloads.base import Metric
from repro.workloads.micro import UtilizationMicrobenchmark
from repro.workloads.mobile import (
    FPS_APP_NAMES,
    LATENCY_APP_NAMES,
    MOBILE_APP_NAMES,
    make_app,
)
from repro.workloads.spec import SPEC_BENCHMARKS, spec_benchmark


class TestRegistry:
    def test_twelve_apps(self):
        assert len(MOBILE_APP_NAMES) == 12

    def test_metric_partition_matches_table2(self):
        assert len(LATENCY_APP_NAMES) == 7
        assert len(FPS_APP_NAMES) == 5
        assert set(LATENCY_APP_NAMES) | set(FPS_APP_NAMES) == set(MOBILE_APP_NAMES)

    def test_make_app_unknown_name(self):
        with pytest.raises(KeyError):
            make_app("flappy-bird")

    def test_factories_produce_fresh_instances(self):
        assert make_app("bbench") is not make_app("bbench")

    def test_metrics_assigned(self):
        for name in LATENCY_APP_NAMES:
            assert make_app(name).metric is Metric.LATENCY
        for name in FPS_APP_NAMES:
            assert make_app(name).metric is Metric.FPS


class TestAppRuns:
    """One smoke run per app family (full sweep lives in test_paper_claims.py)."""

    def test_latency_app_produces_latency(self):
        run = run_app("photo-editor", seed=0)
        assert run.latency_s() > 0.5
        assert run.trace.duration_s > 2.0

    def test_fps_app_produces_frames(self):
        run = run_app("angry-bird", seed=0)
        assert 30.0 < run.avg_fps() <= 61.0
        assert 0.0 < run.min_fps() <= run.avg_fps() + 1e-9

    def test_media_app_meets_content_rate(self):
        run = run_app("video-player", seed=0)
        assert run.avg_fps() == pytest.approx(30.0, abs=2.0)

    def test_heavy_game_uses_big_cores(self):
        run = run_app("eternity-warrior-2", seed=1)
        big = run.trace.cores_of_type(CoreType.BIG)
        assert run.trace.busy[big].sum() > 0

    def test_light_apps_avoid_big_cores(self):
        run = run_app("youtube", seed=0)
        big = run.trace.cores_of_type(CoreType.BIG)
        big_share = run.trace.busy[big].sum() / max(run.trace.busy.sum(), 1e-9)
        assert big_share < 0.05

    def test_encoder_dominated_by_big_core(self):
        run = run_app("encoder", seed=0)
        big = run.trace.cores_of_type(CoreType.BIG)
        big_share = run.trace.busy[big].sum() / run.trace.busy.sum()
        assert big_share > 0.4

    def test_deterministic_across_processes_state(self):
        a = run_app("browser", seed=3)
        b = run_app("browser", seed=3)
        assert a.latency_s() == b.latency_s()
        assert a.avg_power_mw() == b.avg_power_mw()


class TestSpecSuite:
    def test_twelve_kernels(self):
        assert len(SPEC_BENCHMARKS) == 12

    def test_lookup(self):
        assert spec_benchmark("mcf").name == "mcf"
        with pytest.raises(KeyError):
            spec_benchmark("doom")

    def test_kernel_runs_to_completion(self):
        chip = exynos5422()
        sim = Simulator(SimConfig(
            chip=chip,
            core_config=single_core_config(CoreType.LITTLE),
            governors=fixed_governors(chip),
            max_seconds=30.0,
        ))
        bench = spec_benchmark("hmmer")
        task = bench.install(sim)
        trace = sim.run()
        # hmmer is compute-bound at ilp 0.95: little@1.3 does ~1 unit/s.
        assert trace.duration_s == pytest.approx(bench.total_units, rel=0.05)
        assert task.total_busy_s == pytest.approx(trace.duration_s, rel=0.01)

    def test_kernels_span_characteristics(self):
        ilps = [b.work_class.ilp for b in SPEC_BENCHMARKS]
        wss = [b.work_class.wss_kb for b in SPEC_BENCHMARKS]
        assert min(ilps) < 0.3 and max(ilps) > 0.9
        assert min(wss) < 512 and max(wss) > 1500


class TestMicrobenchmark:
    def run_micro(self, util, core_type=CoreType.LITTLE, freq=1_300_000):
        chip = exynos5422()
        sim = Simulator(SimConfig(
            chip=chip,
            core_config=single_core_config(core_type),
            governors=fixed_governors(chip, little_khz=freq, big_khz=freq),
            max_seconds=2.0,
        ))
        UtilizationMicrobenchmark(util).install(sim, chip.cluster(core_type).spec, freq)
        return sim.run()

    @pytest.mark.parametrize("util", [0.25, 0.5, 0.75, 1.0])
    def test_achieves_target_utilization(self, util):
        trace = self.run_micro(util)
        measured = trace.busy[0].mean()
        assert measured == pytest.approx(util, abs=0.06)

    def test_zero_utilization_idles(self):
        trace = self.run_micro(0.0)
        assert trace.busy.sum() == 0.0

    def test_utilization_invariant_to_frequency(self):
        lo = self.run_micro(0.5, freq=500_000).busy[0].mean()
        hi = self.run_micro(0.5, freq=1_300_000).busy[0].mean()
        assert lo == pytest.approx(hi, abs=0.06)

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            UtilizationMicrobenchmark(1.5)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            UtilizationMicrobenchmark(0.5, period_ms=0)
