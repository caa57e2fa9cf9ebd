"""Tests for tasks, directives, and channels."""

import pytest

from repro.platform.perfmodel import COMPUTE_BOUND, WorkClass
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import (
    Channel,
    Sleep,
    SleepUntil,
    Task,
    TaskState,
    WaitSignal,
    Work,
)


def make_sim(max_seconds=5.0, **kwargs) -> Simulator:
    return Simulator(SimConfig(max_seconds=max_seconds, **kwargs))


class TestDirectives:
    def test_work_rejects_negative(self):
        with pytest.raises(ValueError):
            Work(-1.0)

    def test_sleep_rejects_negative(self):
        with pytest.raises(ValueError):
            Sleep(-0.1)

    def test_wait_signal_rejects_zero_count(self):
        with pytest.raises(ValueError):
            WaitSignal(Channel(), count=0)


class TestChannel:
    def test_post_accumulates_permits(self):
        chan = Channel("c")
        chan.post()
        chan.post(2)
        assert chan.permits == 3

    def test_post_rejects_zero(self):
        with pytest.raises(ValueError):
            Channel().post(0)


class TestTaskLifecycle:
    def test_finishes_after_work(self):
        sim = make_sim()

        def behavior(ctx):
            yield Work(0.01)

        task = Task("t", behavior, COMPUTE_BOUND)
        sim.spawn(task)
        sim.run()
        assert task.state is TaskState.FINISHED
        assert task.total_busy_s > 0

    def test_work_time_matches_throughput(self):
        """0.1 units on a little core pinned at 1.3GHz takes 100ms."""
        from repro.experiments.common import fixed_governors, single_core_config
        from repro.platform.chip import exynos5422
        from repro.platform.coretypes import CoreType

        chip = exynos5422()
        sim = Simulator(SimConfig(
            chip=chip,
            core_config=single_core_config(CoreType.LITTLE),
            governors=fixed_governors(chip, little_khz=1_300_000),
            max_seconds=5.0,
        ))
        done_at = []

        def behavior(ctx):
            yield Work(0.1)
            done_at.append(ctx.now_s)
            ctx.request_stop()

        sim.spawn(Task("t", behavior, COMPUTE_BOUND))
        sim.run()
        assert done_at[0] == pytest.approx(0.1, abs=0.005)

    def test_sleep_duration_respected(self):
        sim = make_sim()
        wake_times = []

        def behavior(ctx):
            yield Sleep(0.25)
            wake_times.append(ctx.now_s)
            ctx.request_stop()

        sim.spawn(Task("sleeper", behavior, COMPUTE_BOUND))
        sim.run()
        assert wake_times[0] == pytest.approx(0.25, abs=0.002)

    def test_sleep_until_past_is_noop(self):
        sim = make_sim()
        order = []

        def behavior(ctx):
            yield SleepUntil(-1.0)
            order.append("after")
            yield Work(0.001)
            ctx.request_stop()

        sim.spawn(Task("t", behavior, COMPUTE_BOUND))
        sim.run()
        assert order == ["after"]

    def test_zero_work_is_skipped(self):
        sim = make_sim()

        def behavior(ctx):
            yield Work(0.0)
            yield Work(0.001)

        task = Task("t", behavior, COMPUTE_BOUND)
        sim.spawn(task)
        sim.run()
        assert task.state is TaskState.FINISHED

    def test_cannot_start_twice(self):
        sim = make_sim()

        def behavior(ctx):
            yield Work(0.001)

        task = Task("t", behavior, COMPUTE_BOUND)
        sim.spawn(task)
        with pytest.raises(RuntimeError):
            sim.spawn(task)

    def test_directive_work_class_override(self):
        special = WorkClass("special", compute_fraction=0.5, wss_kb=64)
        sim = make_sim()
        seen = []

        def behavior(ctx):
            yield Work(0.001, work_class=special)
            ctx.request_stop()

        task = Task("t", behavior, COMPUTE_BOUND)
        sim.spawn(task)
        # Before running the first Work directive is current.
        assert task.current_work_class is special
        sim.run()

    def test_current_work_class_follows_each_directive(self):
        """A ``Work`` with a class runs as that class; every other state
        (a classless ``Work``, ``Sleep``, ``WaitSignal``, finished) reports
        the task's own class, which the engine still reads for the
        activity factor after a task blocks mid-tick."""
        own = WorkClass("own", compute_fraction=0.9, wss_kb=128)
        special = WorkClass("special", compute_fraction=0.5, wss_kb=64)
        chan = Channel("c")

        def behavior(ctx):
            yield Work(0.001, work_class=special)
            yield Work(0.001)
            yield Work(0.001, work_class=special)
            yield Sleep(0.01)
            yield Work(0.001, work_class=special)
            yield WaitSignal(chan)
            yield Work(0.001, work_class=special)

        sim = make_sim()
        task = Task("t", behavior, own)
        sim.spawn(task)
        seen = [task.current_work_class]
        for _ in range(7):
            task._advance(sim)
            seen.append(task.current_work_class)
        assert task.state is TaskState.FINISHED
        assert seen == [special, own, special, own, special, own, special, own]

    def test_zero_length_directives_leave_the_next_class(self):
        special = WorkClass("special", compute_fraction=0.5, wss_kb=64)

        def behavior(ctx):
            yield Work(0.0, work_class=special)  # skipped
            yield Sleep(0.0)  # skipped
            yield Work(0.001)

        sim = make_sim()
        task = Task("t", behavior, COMPUTE_BOUND)
        sim.spawn(task)
        assert task.current_work_class is COMPUTE_BOUND
        assert task.remaining_units == 0.001


class TestSignalling:
    def test_producer_consumer(self):
        sim = make_sim()
        chan = sim.channel("jobs")
        consumed = []

        def producer(ctx):
            for _ in range(3):
                yield Work(0.002)
                chan.post()
            yield Sleep(0.5)
            ctx.request_stop()

        def consumer(ctx):
            while True:
                yield WaitSignal(chan)
                yield Work(0.001)
                consumed.append(ctx.now_s)

        sim.spawn(Task("prod", producer, COMPUTE_BOUND))
        sim.spawn(Task("cons", consumer, COMPUTE_BOUND))
        sim.run()
        assert len(consumed) == 3

    def test_signals_not_lost_when_consumer_busy(self):
        """Counting semantics: posts made while the consumer works are kept."""
        sim = make_sim()
        chan = sim.channel("jobs")
        consumed = []

        def producer(ctx):
            for _ in range(5):
                chan.post()
            yield Sleep(1.0)
            ctx.request_stop()

        def consumer(ctx):
            while True:
                yield WaitSignal(chan)
                yield Work(0.02)
                consumed.append(ctx.now_s)

        sim.spawn(Task("prod", producer, COMPUTE_BOUND))
        sim.spawn(Task("cons", consumer, COMPUTE_BOUND))
        sim.run()
        assert len(consumed) == 5

    def test_wait_count_joins_multiple_posts(self):
        sim = make_sim()
        done = sim.channel("done")
        joined = []

        def worker(ctx, i):
            yield Work(0.001 * (i + 1))
            done.post()

        def joiner(ctx):
            yield WaitSignal(done, count=3)
            joined.append(ctx.now_s)
            ctx.request_stop()

        for i in range(3):
            sim.spawn(Task(f"w{i}", lambda ctx, i=i: worker(ctx, i), COMPUTE_BOUND))
        sim.spawn(Task("join", joiner, COMPUTE_BOUND))
        sim.run()
        assert len(joined) == 1

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_rewait_on_channel_drained_in_same_pass(self, fastpath):
        """A task woken from B that waits on A, which the same wake-up pass
        drained, is still woken by A's next post."""
        sim = make_sim(max_seconds=1.0, fastpath=fastpath)
        chan_a = sim.channel("A")
        chan_b = sim.channel("B")
        resumed = []

        def a(ctx):
            yield WaitSignal(chan_a)

        def b(ctx):
            yield WaitSignal(chan_b)
            yield WaitSignal(chan_a)
            resumed.append(ctx.now_s)

        def poster(ctx):
            chan_a.post()
            chan_b.post()
            yield Sleep(0.05)
            chan_a.post()

        for name, behavior in (("a", a), ("b", b), ("poster", poster)):
            sim.spawn(Task(name, behavior, COMPUTE_BOUND))
        sim.run()
        assert resumed and resumed[0] >= 0.05
        assert chan_a.permits == 0 and not chan_a.waiters
        assert not sim._watched_channels

    def test_immediately_available_permits_do_not_block(self):
        sim = make_sim()
        chan = sim.channel("c")
        chan.post(2)
        hits = []

        def behavior(ctx):
            yield WaitSignal(chan, count=2)
            hits.append(ctx.now_s)
            ctx.request_stop()

        sim.spawn(Task("t", behavior, COMPUTE_BOUND))
        sim.run()
        assert hits and hits[0] < 0.01
