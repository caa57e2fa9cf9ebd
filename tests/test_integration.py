"""Cross-module integration tests: whole-system behaviours from the paper."""

from repro.core.study import run_app
from repro.platform.chip import CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.sched.params import SchedulerConfig, baseline_config, variant_configs
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, Work
from repro.platform.perfmodel import COMPUTE_BOUND


class TestPaperHeadlines:
    """The paper's main qualitative findings, end-to-end."""

    def test_tlp_low_for_mobile_apps(self, study):
        """Section V.A: all apps except bbench have TLP below ~3."""
        for app in ["photo-editor", "video-player", "youtube", "browser"]:
            assert study.characterize(app).tlp.tlp < 3.0

    def test_bbench_has_highest_tlp(self, study):
        bbench = study.characterize("bbench").tlp.tlp
        for app in ["photo-editor", "video-player", "browser", "encoder"]:
            assert bbench > study.characterize(app).tlp.tlp

    def test_big_core_usage_ordering(self, study):
        """Encoder/bbench use big cores heavily; media apps basically never."""
        big = {
            app: study.characterize(app).tlp.big_active_pct
            for app in ["encoder", "bbench", "video-player", "youtube"]
        }
        assert big["encoder"] > 30.0
        assert big["bbench"] > 25.0
        assert big["video-player"] < 3.0
        assert big["youtube"] < 3.0

    def test_majority_of_time_in_min_or_under50(self, study):
        """Section VI.B: min + <50% dominate for most apps."""
        dominated = 0
        apps = ["photo-editor", "video-player", "youtube", "browser", "pdf-reader"]
        for app in apps:
            b = study.characterize(app).efficiency
            if b.min_pct + b.under_50_pct > 50.0:
                dominated += 1
        assert dominated >= 4

    def test_big_cores_rarely_more_than_one(self, study):
        """Section V.B: even when big cores are used, usually just one."""
        for app in ["encoder", "virus-scanner", "eternity-warrior-2"]:
            matrix = study.characterize(app).matrix
            one_big = matrix[1].sum()
            multi_big = matrix[2:].sum()
            assert one_big > multi_big

    def test_single_big_core_recovers_performance(self):
        """Section V.C: one big core fixes most of the latency loss."""
        app = "bbench"
        base = run_app(app, core_config=CoreConfig(4, 4), seed=0).latency_s()
        l4 = run_app(app, core_config=CoreConfig(4, 0), seed=0).latency_s()
        l4b1 = run_app(app, core_config=CoreConfig(4, 1), seed=0).latency_s()
        loss_l4 = l4 - base
        loss_l4b1 = l4b1 - base
        assert loss_l4 > 0
        assert loss_l4b1 < 0.5 * loss_l4

    def test_little_only_saves_power(self):
        app = "video-player"
        base = run_app(app, core_config=CoreConfig(4, 4), seed=0)
        l2 = run_app(app, core_config=CoreConfig(2, 0), seed=0)
        assert l2.avg_power_mw() < base.avg_power_mw()
        # ...without hurting playback (paper: angry bird / video player).
        assert l2.avg_fps() > base.avg_fps() - 2.0

    def test_longer_governor_interval_saves_power(self):
        """Section VI.C: the sampling interval is the most impactful knob."""
        app = "bbench"
        variants = {v.name: v for v in variant_configs()}
        base = run_app(app, scheduler=baseline_config(), seed=0)
        slow = run_app(app, scheduler=variants["interval-100"], seed=0)
        assert slow.avg_power_mw() < base.avg_power_mw()

    def test_aggressive_hmp_costs_power(self):
        app = "eternity-warrior-2"
        variants = {v.name: v for v in variant_configs()}
        base = run_app(app, scheduler=baseline_config(), seed=0)
        aggressive = run_app(app, scheduler=variants["hmp-aggressive"], seed=0)
        conservative = run_app(app, scheduler=variants["hmp-conservative"], seed=0)
        assert aggressive.avg_power_mw() >= conservative.avg_power_mw()


class TestSchedulerGovernorInterplay:
    def test_burst_ramps_frequency_then_migrates(self):
        """The canonical interactive burst: freq ramp, then up-migration."""
        sim = Simulator(SimConfig(max_seconds=2.0, seed=0))

        def burst(ctx):
            yield Sleep(0.2)
            yield Work(1.0)  # a long burst
            ctx.request_stop()

        task = Task("burst", burst, COMPUTE_BOUND)
        sim.spawn(task)
        trace = sim.run()
        little_freq = trace.freq_khz(CoreType.LITTLE)
        big_rows = trace.cores_of_type(CoreType.BIG)
        # The little cluster ramped beyond min during the burst...
        assert little_freq.max() > 500_000
        # ...and the task eventually migrated to a big core.
        assert trace.busy[big_rows].sum() > 0
        assert task.migrations >= 1

    def test_weight_variants_change_migration_timing(self):
        """Longer history half-life delays the up-migration."""
        variants = {v.name: v for v in variant_configs()}

        def first_big_tick(sched: SchedulerConfig) -> int:
            sim = Simulator(SimConfig(max_seconds=3.0, seed=0, scheduler=sched))

            def burst(ctx):
                yield Work(3.0)

            sim.spawn(Task("burst", burst, COMPUTE_BOUND))
            trace = sim.run()
            big_rows = trace.cores_of_type(CoreType.BIG)
            big_busy = trace.busy[big_rows].sum(axis=0)
            hits = (big_busy > 0).nonzero()[0]
            return int(hits[0]) if len(hits) else 10_000

        fast = first_big_tick(variants["weight-half"])
        slow = first_big_tick(variants["weight-2x"])
        assert fast < slow


class TestEnergyAccounting:
    def test_b4_uses_more_power_than_l4_for_same_app(self):
        chip = exynos5422(screen_on=True)
        l4 = run_app("fifa-15", chip=chip, core_config=CoreConfig(4, 0), seed=0)
        b4 = run_app("fifa-15", chip=chip, core_config=CoreConfig(0, 4), seed=0)
        assert b4.avg_power_mw() > l4.avg_power_mw()

    def test_power_increase_moderate_with_screen_on(self):
        """Figure 4 shape: screen-on power dilutes the CPU delta."""
        chip = exynos5422(screen_on=True)
        l4 = run_app("pdf-reader", chip=chip, core_config=CoreConfig(4, 0), seed=0)
        b4 = run_app("pdf-reader", chip=chip, core_config=CoreConfig(0, 4), seed=0)
        increase = (b4.avg_power_mw() - l4.avg_power_mw()) / l4.avg_power_mw()
        assert increase < 0.6
