"""Golden-trace equivalence tests for the engine fast paths.

The fast paths (idle fast-forward, busy steady-state fast-forward, and
the deferred vectorized power pipeline) must be *bit-exact* with the
reference tick-by-tick loop: for every workload/config/seed combination
the busy, frequency, power, per-cluster CPU power, and wakeup trace
columns are compared with ``np.array_equal`` (no tolerance).
Configurations that the fast path must refuse (thermal model, GPU,
cluster-switching scheduler, env/config pins) are additionally checked
to have fast-forwarded zero ticks.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import fixed_governors, single_core_config
from repro.platform.chip import CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.platform.gpu import GpuSpec
from repro.platform.perfmodel import COMPUTE_BOUND, WorkClass, cached_throughput
from repro.platform.power import DeferredPowerPipeline
from repro.platform.thermal import ThermalParams
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.sched.efficiency_sched import EfficiencyScheduler
from repro.sched.governor import (
    OndemandGovernor,
    PerformanceGovernor,
    PowersaveGovernor,
)
from repro.sched.params import baseline_config
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, WaitSignal, Work
from repro.workloads.micro import UtilizationMicrobenchmark
from repro.workloads.mobile import make_app

_CHIP = exynos5422()


def run_pair(make_config, install):
    """Run the same scenario on the reference and fast paths."""
    sims = []
    for fastpath in (False, True):
        config = make_config()
        config.fastpath = fastpath
        sim = Simulator(config)
        install(sim)
        sim.run()
        sims.append(sim)
    return sims


def assert_traces_equal(ref, fast):
    tr_ref, tr_fast = ref.trace, fast.trace
    assert np.array_equal(tr_ref.busy, tr_fast.busy)
    assert np.array_equal(tr_ref.power_mw, tr_fast.power_mw)
    assert np.array_equal(tr_ref.wakeups, tr_fast.wakeups)
    for ct in (CoreType.LITTLE, CoreType.BIG):
        assert np.array_equal(tr_ref.freq_khz(ct), tr_fast.freq_khz(ct))
        assert np.array_equal(tr_ref.cpu_power_mw(ct), tr_fast.cpu_power_mw(ct))
    assert tr_ref.average_power_mw() == tr_fast.average_power_mw()
    assert ref.fastforward_ticks == 0  # reference path never fast-forwards


def assert_engine_state_equal(ref, fast):
    """The state the record and load phases write matches, bit for bit,
    after the run: cores' idle and window counters, tasks' loads, work
    and busy time, and the busy-core count that sets DRAM contention."""
    assert ref._busy_cores_prev == fast._busy_cores_prev
    for c_ref, c_fast in zip(ref.cores, fast.cores):
        assert c_ref.idle_ticks == c_fast.idle_ticks
        assert c_ref.busy_in_window_s == c_fast.busy_in_window_s
    assert len(ref.tasks) == len(fast.tasks)
    for t_ref, t_fast in zip(ref.tasks, fast.tasks):
        assert t_ref.load.value == t_fast.load.value
        assert t_ref.total_busy_s == t_fast.total_busy_s
        assert t_ref.remaining_units == t_fast.remaining_units


def standby_behavior(ctx):
    """A 1 Hz housekeeping timer: long idle spans between tiny bursts."""
    while True:
        yield Work(0.002)
        yield Sleep(1.0)


class TestGoldenTraceEquivalence:
    """Fast path produces byte-identical traces on eligible configs."""

    @pytest.mark.parametrize(
        "app,seed,kwargs",
        [
            ("pdf-reader", 1, {}),
            ("video-player", 2, {}),
            ("browser", 3, {"core_config": CoreConfig(little=2, big=2)}),
            ("voice-call", 1, {"scheduler_factory": EfficiencyScheduler}),
            ("social-feed", 4, {}),  # governors overridden below
            ("maps", 5, {}),  # pinned governors below
        ],
        ids=["pdf", "video", "browser-L2B2", "voice-efficiency",
             "social-ondemand", "maps-pinned"],
    )
    def test_mobile_app_traces_match(self, app, seed, kwargs):
        def make_config():
            extra = dict(kwargs)
            if app == "social-feed":
                # Ondemand has no tick_span override, exercising the
                # base idle replay loop.
                extra["governors"] = {
                    CoreType.LITTLE: OndemandGovernor(),
                    CoreType.BIG: OndemandGovernor(),
                }
            elif app == "maps":
                extra["governors"] = {
                    CoreType.LITTLE: PowersaveGovernor(),
                    CoreType.BIG: PerformanceGovernor(),
                }
            return SimConfig(max_seconds=3.0, seed=seed, **extra)

        ref, fast = run_pair(make_config, lambda sim: make_app(app).install(sim))
        assert_traces_equal(ref, fast)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_standby_fast_forwards_and_matches(self, seed):
        def install(sim):
            sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))

        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=10.0, seed=seed), install
        )
        assert_traces_equal(ref, fast)
        # The whole run is idle except the 1 Hz bursts: most ticks must
        # have been covered by fast-forward spans.
        assert fast.fastforward_ticks > 0.8 * fast.max_ticks

    def test_low_util_app_actually_fast_forwards(self):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=1),
            lambda sim: make_app("voice-call").install(sim),
        )
        assert fast.fastforward_ticks > 0
        assert fast.fastforward_spans > 0

    def test_sleepers_wake_in_fifo_order_across_paths(self):
        """Tasks due the same tick wake in spawn order (heap seq tiebreak)."""

        def make(order):
            def behavior(ctx):
                yield Sleep(0.5)
                order.append(ctx.task_name)
                yield Work(0.001)

            return behavior

        def run(fastpath):
            order = []
            sim = Simulator(SimConfig(max_seconds=2.0, seed=0, fastpath=fastpath))
            for name in ("a", "b", "c", "d"):
                sim.spawn(Task(name, make(order), COMPUTE_BOUND))
            sim.run()
            return order

        assert run(False) == run(True) == ["a", "b", "c", "d"]


def spec_behavior(ctx):
    """Pure compute, never sleeps — the busy steady-state showcase."""
    while True:
        yield Work(10.0)


def _install_spec(count):
    def install(sim):
        tasks = []
        for i in range(count):
            task = Task(f"spec-{i}", spec_behavior, COMPUTE_BOUND)
            tasks.append(task)
            sim.spawn(task)
        sim._test_tasks = tasks
    return install


class TestBusyFastForward:
    """Busy steady-state spans replay bit-exactly."""

    @pytest.mark.parametrize("count,seed", [(1, 0), (4, 1), (4, 7), (10, 3)])
    def test_spec_compute_traces_match(self, count, seed):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=seed), _install_spec(count)
        )
        assert_traces_equal(ref, fast)
        assert fast.busy_fastpath_enabled
        # After governor convergence the whole run is steady-state.
        assert fast.busy_fastforward_ticks > 0.5 * fast.max_ticks
        assert fast.busy_fastforward_spans > 0

    def test_task_state_matches_after_busy_spans(self):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=2), _install_spec(4)
        )
        for t_ref, t_fast in zip(ref._test_tasks, fast._test_tasks):
            assert t_ref.total_busy_s == t_fast.total_busy_s
            assert t_ref.remaining_units == t_fast.remaining_units
            assert t_ref.load.value == t_fast.load.value
            assert t_ref.migrations == t_fast.migrations
            assert t_ref.core_id == t_fast.core_id

    def test_wakeup_exactly_at_horizon(self):
        """A sleeper due mid-run bounds the span; its wake tick, load
        decay, and placement must be untouched by the replay."""

        def sleeper(ctx):
            while True:
                yield Sleep(1.0)
                yield Work(0.001)

        def install(sim):
            _install_spec(4)(sim)
            sim.spawn(Task("sleeper", sleeper, COMPUTE_BOUND))

        ref, fast = run_pair(lambda: SimConfig(max_seconds=4.0, seed=5), install)
        assert_traces_equal(ref, fast)
        assert fast.busy_fastforward_ticks > 0

    def test_migration_threshold_crossing_cuts_span(self):
        """A single ramping task crosses the up-migration threshold; the
        span must end at the crossing so the migration fires on time."""
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=2.0, seed=0), _install_spec(1)
        )
        assert_traces_equal(ref, fast)
        t_ref, t_fast = ref._test_tasks[0], fast._test_tasks[0]
        assert t_ref.migrations == t_fast.migrations
        assert t_ref.core_id == t_fast.core_id

    def test_input_boost_inside_span(self):
        """A touch event mid-run perturbs the governor; spans on either
        side must still replay bit-exactly."""

        def toucher(ctx):
            yield Sleep(0.9)
            ctx.notify_input()
            yield Work(0.001)
            yield Sleep(10.0)

        def install(sim):
            _install_spec(4)(sim)
            sim.spawn(Task("toucher", toucher, COMPUTE_BOUND))

        base = baseline_config()
        boosted = replace(base, governor=replace(base.governor, input_boost_ms=100))
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=4, scheduler=boosted), install
        )
        assert_traces_equal(ref, fast)
        assert fast.busy_fastforward_ticks > 0

    def test_restricted_core_config_matches(self):
        ref, fast = run_pair(
            lambda: SimConfig(
                max_seconds=2.0, seed=6,
                core_config=CoreConfig(little=2, big=1),
            ),
            _install_spec(3),
        )
        assert_traces_equal(ref, fast)

    def test_pinned_governors_fast_forward(self):
        def make_config():
            return SimConfig(
                max_seconds=2.0, seed=1,
                governors={
                    CoreType.LITTLE: PowersaveGovernor(),
                    CoreType.BIG: PerformanceGovernor(),
                },
            )

        ref, fast = run_pair(make_config, _install_spec(4))
        assert_traces_equal(ref, fast)
        assert fast.busy_fastforward_ticks > 0

    def test_governor_without_span_support_disables_busy_ff(self):
        """Ondemand has no ``tick_span`` override: the busy fast
        path must refuse statically, and traces still match."""

        def make_config():
            return SimConfig(
                max_seconds=2.0, seed=1,
                governors={
                    CoreType.LITTLE: OndemandGovernor(),
                    CoreType.BIG: OndemandGovernor(),
                },
            )

        ref, fast = run_pair(make_config, _install_spec(4))
        assert not fast.busy_fastpath_enabled
        assert fast.busy_fastforward_ticks == 0
        assert_traces_equal(ref, fast)

    def test_burst_ends_within_a_decrement_after_a_raise_inside_the_span(self):
        """The interactive governor raises the little cluster inside the
        span; the probe walks the burst's work through the replayed
        frequencies, so the span ends one decrement short of exhaustion
        at the raised rate and the reference steps finish the burst."""
        little = _CHIP.little_cluster
        min_tput = cached_throughput(
            little.spec, little.opp_table.min_khz, COMPUTE_BOUND
        )

        def burst(ctx):
            yield Work(0.060 * min_tput)  # 60 ms at the lowest OPP
            yield Sleep(10.0)

        spans = []

        def install(sim):
            task = Task("burst", burst, COMPUTE_BOUND)
            sim.spawn(task)
            if not sim.config.fastpath:
                return
            replay = sim._fast_forward

            def recording(n, plan):
                freq0 = sim._dom_little.freq_khz
                replay(n, plan)
                spans.append(
                    (bool(plan[0]), freq0, sim._dom_little.freq_khz,
                     task.remaining_units)
                )

            sim._fast_forward = recording

        ref, fast = run_pair(
            lambda: SimConfig(
                max_seconds=0.5, seed=0, core_config=CoreConfig(little=1, big=0)
            ),
            install,
        )
        assert_traces_equal(ref, fast)
        busy, freq0, freq1, remaining = spans[0]
        assert busy and freq1 > freq0
        dec = fast.tick_s * cached_throughput(little.spec, freq1, COMPUTE_BOUND)
        assert dec <= remaining < 2 * dec

    def test_exhaustion_refusal_sets_probe_cooldown(self):
        """A burst that outlasts the busy minimum at the lowest OPP but
        not at the pinned maximum passes the pre-screen and is refused
        by the exact walk, which holds probes off until its exhaustion."""
        little = _CHIP.little_cluster
        units = 0.030 * cached_throughput(
            little.spec, little.opp_table.min_khz, COMPUTE_BOUND
        )

        def burst(ctx):
            yield Work(units)
            yield Sleep(10.0)

        sim = Simulator(SimConfig(
            max_seconds=0.5, seed=0, core_config=CoreConfig(little=1, big=0),
            governors={
                CoreType.LITTLE: PerformanceGovernor(),
                CoreType.BIG: PerformanceGovernor(),
            },
        ))
        sim.spawn(Task("burst", burst, COMPUTE_BOUND))
        assert sim._span_horizon() == (0, None)
        max_tput = cached_throughput(
            little.spec, little.opp_table.max_khz, COMPUTE_BOUND
        )
        assert sim._busy_probe_cooldown == int(units / (sim.tick_s * max_tput)) - 1
        assert 0 < sim._busy_probe_cooldown < 16


def _install_standby(sim):
    sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))


def _install_app(name):
    return lambda sim: make_app(name).install(sim)


def _install_microbench_little_min(sim):
    little = sim.config.chip.little_cluster
    UtilizationMicrobenchmark(0.5).install(
        sim, little.spec, little.opp_table.min_khz
    )


def _little_min_opp():
    """One little core, both clusters pinned at their lowest OPP."""
    return {
        "core_config": CoreConfig(little=1, big=0),
        "governors": {
            CoreType.LITTLE: PowersaveGovernor(),
            CoreType.BIG: PowersaveGovernor(),
        },
    }


class TestFastForwardTickPins:
    """Each scenario fast-forwards exactly its pinned number of ticks.

    Seven scenarios at seed 1: a 1 Hz standby timer, three
    low-utilization apps whose 60 Hz ambient work bounds spans to a
    frame, four never-sleeping compute tasks (short and long), and the
    Fig 6 duty-cycle microbenchmark at u=0.5 on one little core pinned at
    its lowest OPP, whose bursts fast-forward to within a tick or two of
    their end.  The fast path must
    match the reference loop's trace bit for bit, and its
    fast-forwarded ticks (all spans, then the busy subset) must equal
    the pinned counts.  The counts are hardware-independent, so a
    refusal added to the span probe or a shortened span shows here
    whatever the host's speed.
    """

    @pytest.mark.parametrize(
        "install,seconds,ff_ticks,busy_ticks,config",
        [
            (_install_standby, 10.0, 9_940, 0, dict),
            (_install_app("voice-call"), 4.0, 2_762, 0, dict),
            (_install_app("video-player"), 4.0, 2_073, 0, dict),
            (_install_app("browser"), 4.0, 3_038, 0, dict),
            (_install_spec(4), 2.0, 1_998, 1_998, dict),
            (_install_spec(4), 10.0, 9_994, 9_994, dict),
            (_install_microbench_little_min, 2.0, 1_961, 961, _little_min_opp),
        ],
        ids=["standby-1hz", "voice-call", "video-player", "browser",
             "spec-compute", "spec-compute-long", "util-micro-little-min-opp"],
    )
    def test_fastforward_ticks_pinned(
        self, install, seconds, ff_ticks, busy_ticks, config
    ):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=seconds, seed=1, **config()), install
        )
        assert_traces_equal(ref, fast)
        assert (fast.fastforward_ticks, fast.busy_fastforward_ticks) == (
            ff_ticks, busy_ticks,
        )


@st.composite
def microbench_cases(draw):
    """A Fig 6-style duty-cycle case: one core of either type at any of
    its OPPs, a duty cycle, a period, and a work class anywhere in the
    performance model's range."""
    core_type = draw(st.sampled_from([CoreType.LITTLE, CoreType.BIG]))
    freq = draw(st.sampled_from(_CHIP.cluster(core_type).opp_table.frequencies_khz))
    work = WorkClass(
        "fuzz",
        compute_fraction=draw(st.floats(0.3, 1.0)),
        wss_kb=draw(st.sampled_from([32.0, 256.0, 1024.0, 4096.0])),
        ilp=draw(st.floats(0.0, 1.0)),
        activity_factor=draw(st.floats(0.5, 1.5)),
    )
    return {
        "core_type": core_type,
        "freq": freq,
        "utilization": draw(st.floats(0.05, 1.0)),
        "period_ms": draw(st.sampled_from([10.0, 33.0, 50.0, 100.0])),
        "work": work,
        "pinned": draw(st.booleans()),
    }


class TestMicrobenchmarkDifferential:
    """Fast and reference paths agree on generated microbenchmark runs."""

    @settings(max_examples=20, deadline=None)
    @given(case=microbench_cases())
    def test_traces_match_reference(self, case):
        core_type = case["core_type"]
        freq = case["freq"]

        def make_config():
            governors = None
            if case["pinned"]:
                governors = fixed_governors(_CHIP, little_khz=freq, big_khz=freq)
            return SimConfig(
                chip=_CHIP,
                core_config=single_core_config(core_type),
                governors=governors,
                max_seconds=0.6,
                seed=1,
            )

        def install(sim):
            bench = UtilizationMicrobenchmark(
                case["utilization"], case["period_ms"], case["work"]
            )
            bench.install(sim, _CHIP.cluster(core_type).spec, freq)

        ref, fast = run_pair(make_config, install)
        assert_traces_equal(ref, fast)
        assert_engine_state_equal(ref, fast)


class TestDeferredPower:
    """The deferred vectorized power pipeline is bit-exact and gated."""

    def test_enabled_on_default_fast_config(self):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=2.0, seed=1), _install_spec(2)
        )
        assert fast.deferred_power_enabled
        assert not ref.deferred_power_enabled  # fastpath=False keeps per-tick
        assert_traces_equal(ref, fast)

    def test_mid_run_flush_matches(self, monkeypatch):
        """A run that stages more rows than the flush threshold flushes
        mid-run and still matches the reference power bit for bit."""
        staged = []
        flush = DeferredPowerPipeline.flush

        def counting_flush(pipeline):
            staged.append(len(pipeline._rows))
            flush(pipeline)

        monkeypatch.setattr(DeferredPowerPipeline, "flush", counting_flush)
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=5.0, seed=2),
            lambda sim: make_app("bbench").install(sim),
        )
        assert_traces_equal(ref, fast)
        assert staged[0] == DeferredPowerPipeline._FLUSH_THRESHOLD
        assert sum(staged) > DeferredPowerPipeline._FLUSH_THRESHOLD

    def test_thermal_keeps_per_tick_power(self):
        """Thermal feedback reads power each tick, so deferral is off
        (and traces still match via the classic path)."""
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=2.0, seed=1, thermal=ThermalParams()),
            _install_spec(2),
        )
        assert not fast.deferred_power_enabled
        assert_traces_equal(ref, fast)

    def test_gpu_keeps_per_tick_power(self):
        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=2.0, seed=1, gpu=GpuSpec()),
            _install_spec(2),
        )
        assert not fast.deferred_power_enabled
        assert_traces_equal(ref, fast)

    def test_tick_hook_keeps_per_tick_power(self):
        """A tick hook may read trace power live, so the pipeline is not
        instantiated — and power must still be bit-exact per tick."""

        def run(fastpath, hook):
            sim = Simulator(SimConfig(max_seconds=2.0, seed=1, fastpath=fastpath))
            _install_spec(2)(sim)
            if hook:
                sim.add_tick_hook(lambda s: None)
            sim.run()
            return sim

        ref = run(False, hook=False)
        fast = run(True, hook=True)
        assert fast._deferred is None
        assert_traces_equal(ref, fast)

    def test_env_var_disables_deferred_power(self, monkeypatch):
        """``REPRO_ENGINE_FASTPATH=0`` pins the whole reference pipeline,
        including per-tick power."""
        monkeypatch.setenv("REPRO_ENGINE_FASTPATH", "0")
        sim = Simulator(SimConfig(max_seconds=2.0, seed=1, fastpath=True))
        _install_spec(2)(sim)
        sim.run()
        assert not sim.deferred_power_enabled
        assert sim._deferred is None


class TestObservedEquivalence:
    """Observation sees identical streams modulo fast-forward markers."""

    @staticmethod
    def _run_observed(fastpath):
        from repro.obs import Observation

        sim = Simulator(SimConfig(max_seconds=2.5, seed=3, fastpath=fastpath))
        obs = Observation.attach(sim)

        def sleeper(ctx):
            while True:
                yield Sleep(0.4)
                yield Work(0.002)

        _install_spec(4)(sim)
        sim.spawn(Task("sleeper", sleeper, COMPUTE_BOUND))
        sim.run()
        return sim, obs

    def test_event_streams_match_modulo_ff_markers(self):
        from repro.obs import event_to_dict

        _ref_sim, ref_obs = self._run_observed(False)
        fast_sim, fast_obs = self._run_observed(True)
        assert fast_sim.busy_fastforward_ticks > 0

        skip = {"IdleFastForward", "BusyFastForward"}

        def stream(obs):
            # tids come from a process-global counter, so the two runs
            # number their tasks differently; names are the identity.
            events = []
            for e in obs.events:
                if type(e).__name__ in skip:
                    continue
                d = event_to_dict(e)
                d.pop("tid", None)
                events.append(d)
            return events

        assert stream(ref_obs) == stream(fast_obs)

    def test_metrics_match_modulo_ff_counters(self):
        _ref_sim, ref_obs = self._run_observed(False)
        _fast_sim, fast_obs = self._run_observed(True)

        def scrub(value):
            if isinstance(value, dict):
                return {
                    k: scrub(v)
                    for k, v in value.items()
                    if "fastforward" not in str(k)
                }
            return value

        assert scrub(ref_obs.snapshot().to_dict()) == scrub(
            fast_obs.snapshot().to_dict()
        )


class TestFastpathRefusal:
    """Configs whose idle ticks are not no-ops must never fast-forward."""

    def test_thermal_disables_fast_forward(self):
        def install(sim):
            sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))

        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=1, thermal=ThermalParams()),
            install,
        )
        assert not fast.fastpath_enabled
        assert fast.fastforward_ticks == 0
        assert_traces_equal(ref, fast)

    def test_gpu_disables_fast_forward(self):
        def install(sim):
            def behavior(ctx):
                chan = sim.channel("gpu-done")
                while True:
                    yield Work(0.001)
                    sim.gpu.submit(0.01, chan)
                    yield WaitSignal(chan)
                    yield Sleep(0.2)

            sim.spawn(Task("gpu-user", behavior, COMPUTE_BOUND))

        ref, fast = run_pair(
            lambda: SimConfig(max_seconds=3.0, seed=1, gpu=GpuSpec()), install
        )
        assert not fast.fastpath_enabled
        assert fast.fastforward_ticks == 0
        assert_traces_equal(ref, fast)

    def test_cluster_switching_scheduler_disables_fast_forward(self):
        ref, fast = run_pair(
            lambda: SimConfig(
                max_seconds=3.0, seed=1,
                scheduler_factory=ClusterSwitchingScheduler,
            ),
            lambda sim: make_app("voice-call").install(sim),
        )
        assert not fast.fastpath_enabled  # idle_tick_is_noop is False
        assert fast.fastforward_ticks == 0
        assert_traces_equal(ref, fast)

    def test_tick_hook_suppresses_fast_forward(self):
        """An observer hook must see every tick, so spans are disabled."""
        sim = Simulator(SimConfig(max_seconds=2.0, seed=0))
        sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))
        seen = []
        sim.add_tick_hook(lambda s: seen.append(s.tick))
        sim.run()
        assert sim.fastpath_enabled  # statically eligible...
        assert sim.fastforward_ticks == 0  # ...but dynamically refused
        assert len(seen) == len(sim.trace)

    def test_env_var_pins_reference_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_FASTPATH", "0")
        sim = Simulator(SimConfig(max_seconds=2.0, seed=0))
        sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))
        sim.run()
        assert not sim.fastpath_enabled
        assert sim.fastforward_ticks == 0

    def test_config_flag_pins_reference_path(self):
        sim = Simulator(SimConfig(max_seconds=2.0, seed=0, fastpath=False))
        sim.spawn(Task("standby", standby_behavior, COMPUTE_BOUND))
        sim.run()
        assert not sim.fastpath_enabled
        assert sim.fastforward_ticks == 0
