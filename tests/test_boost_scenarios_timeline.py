"""Tests for input boost, multitasking scenarios, and the timeline view."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.reductions import WARMUP_S
from repro.core.study import run_app
from repro.core.timeline import LEVELS, render_timeline, sparkline
from repro.core.tlp import tlp_stats
from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType, cortex_a7
from repro.platform.opp import little_opp_table
from repro.sched.governor import ClusterFreqDomain, InteractiveGovernor
from repro.sched.params import GovernorParams, baseline_config
from repro.sim.core import SimCore
from repro.sim.engine import SimConfig, Simulator
from repro.workloads.scenarios import SCENARIOS, BackgroundMusic, Scenario

TICK_S = 0.001


class TestInputBoostGovernor:
    def make_domain(self):
        table = little_opp_table()
        cores = [SimCore(0, cortex_a7(), True, table.max_khz)]
        return ClusterFreqDomain(CoreType.LITTLE, table, cores), cores

    def test_boost_jumps_to_hispeed(self):
        domain, _ = self.make_domain()
        gov = InteractiveGovernor(GovernorParams(input_boost_ms=100))
        gov.start(domain)
        gov.notify_input(domain)
        assert domain.freq_khz == gov.hispeed_khz(domain)

    def test_boost_disabled_by_default(self):
        domain, _ = self.make_domain()
        gov = InteractiveGovernor(GovernorParams())
        gov.start(domain)
        gov.notify_input(domain)
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_boost_floor_expires(self):
        domain, cores = self.make_domain()
        gov = InteractiveGovernor(GovernorParams(input_boost_ms=40, hold_ms=0))
        gov.start(domain)
        gov.notify_input(domain)
        # Idle through the boost window and beyond.
        for t in range(200):
            gov.tick(domain, t, TICK_S)
        assert domain.freq_khz == domain.opp_table.min_khz

    def test_boost_floor_holds_during_window(self):
        domain, cores = self.make_domain()
        gov = InteractiveGovernor(GovernorParams(input_boost_ms=200, hold_ms=0))
        gov.start(domain)
        gov.notify_input(domain)
        for t in range(40):  # two samples, still inside the boost window
            gov.tick(domain, t, TICK_S)
        assert domain.freq_khz >= gov.hispeed_khz(domain)

    def test_rejects_negative_boost(self):
        with pytest.raises(ValueError):
            GovernorParams(input_boost_ms=-1)

    def test_boost_improves_latency_end_to_end(self):
        chip = exynos5422(screen_on=True)
        base = baseline_config()
        boosted_sched = replace(
            base, governor=replace(base.governor, input_boost_ms=120)
        )
        plain = run_app("photo-editor", chip=chip, scheduler=base, seed=3)
        boosted = run_app("photo-editor", chip=chip, scheduler=boosted_sched, seed=3)
        assert boosted.latency_s() < plain.latency_s()


class TestScenarios:
    def test_registry_contents(self):
        assert "browse-with-music" in SCENARIOS
        assert all(isinstance(s, Scenario) for s in SCENARIOS.values())

    def test_unknown_background_rejected(self):
        with pytest.raises(ValueError):
            Scenario("x", "browser", ["bitcoin-miner"])

    def test_install_combines_apps(self):
        sim = Simulator(SimConfig(max_seconds=2.0, seed=1))
        foreground = SCENARIOS["browse-with-music"].install(sim)
        names = {t.name for t in sim.tasks}
        assert any(n.startswith("browser/") for n in names)
        assert any(n.startswith("bg-music/") for n in names)
        assert foreground.name == "browser"

    def test_background_music_plays_on_littles(self):
        sim = Simulator(SimConfig(max_seconds=4.0, seed=1))
        BackgroundMusic().install(sim)
        trace = sim.run()
        big = trace.cores_of_type(CoreType.BIG)
        assert trace.busy[big].sum() == 0.0
        assert trace.busy.sum() > 0.0

    def test_multitasking_reduces_idle(self):
        solo_sim = Simulator(SimConfig(max_seconds=6.0, seed=2))
        from repro.workloads.mobile import make_app
        make_app("browser").install(solo_sim)
        solo = tlp_stats(solo_sim.run().trimmed(WARMUP_S))

        multi_sim = Simulator(SimConfig(max_seconds=6.0, seed=2))
        SCENARIOS["browse-with-music"].install(multi_sim)
        multi = tlp_stats(multi_sim.run().trimmed(WARMUP_S))
        assert multi.idle_pct < solo.idle_pct


class TestTimeline:
    def test_sparkline_levels(self):
        line = sparkline(np.array([0.0, 0.5, 1.0]), width=3, lo=0.0, hi=1.0)
        assert line[0] == LEVELS[0]
        assert line[-1] == LEVELS[-1]

    def test_sparkline_flat_range(self):
        line = sparkline(np.array([5.0, 5.0]), width=4, lo=5.0, hi=5.0)
        assert line == LEVELS[0] * 4

    def test_render_timeline_structure(self):
        run = run_app("video-player", seed=1, max_seconds=2.0)
        out = render_timeline(run.trace, width=40)
        lines = out.splitlines()
        assert sum(1 for l in lines if "busy" in l) == 8  # all enabled cores
        assert any("little f" in l for l in lines)
        assert any("power" in l for l in lines)
        assert "span: 2.00 s" in lines[-1]

    def test_disabled_cores_omitted(self):
        from repro.platform.chip import CoreConfig

        run = run_app(
            "video-player", seed=1, max_seconds=1.0, core_config=CoreConfig(2, 0)
        )
        out = render_timeline(run.trace, width=20)
        assert sum(1 for l in out.splitlines() if "busy" in l) == 2

    def test_empty_trace(self):
        from repro.sim.trace import Trace

        trace = Trace([CoreType.LITTLE], [True], max_ticks=1)
        trace.finalize()
        assert render_timeline(trace) == "(empty trace)"
