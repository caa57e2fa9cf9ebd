"""Tests for :mod:`repro.obs.events` — the bus and the engine emissions."""

from __future__ import annotations

import pytest

from repro.obs import Observation
from repro.obs.events import (
    BusyFastForward,
    ClusterSwitched,
    EventBus,
    FreqChanged,
    IdleFastForward,
    InputBoost,
    TaskBlocked,
    TaskFinished,
    TaskMigrated,
    TaskSpawned,
    TaskWoken,
    ThermalCap,
    event_to_dict,
)
from repro.platform.perfmodel import COMPUTE_BOUND
from repro.platform.thermal import ThermalParams
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, Work
from repro.workloads.mobile import make_app


def _observed_run(app_name: str = "bbench", seconds: float = 4.0, **config):
    sim = Simulator(SimConfig(max_seconds=seconds, **config))
    obs = Observation.attach(sim)
    make_app(app_name).install(sim)
    trace = sim.run()
    return sim, obs, trace


class TestEventBus:
    def test_emit_stamps_tick_from_clock(self):
        now = {"tick": 7}
        bus = EventBus(clock=lambda: now["tick"])
        bus.emit(TaskSpawned(task="a", tid=1))
        now["tick"] = 42
        bus.emit(TaskSpawned(task="b", tid=2))
        assert [e.tick for e in bus] == [7, 42]

    def test_emit_preserves_explicit_tick(self):
        bus = EventBus(clock=lambda: 99)
        bus.emit(FreqChanged(cluster="big", old_khz=1, new_khz=2, tick=5))
        assert bus.events[0].tick == 5

    def test_muted_suppresses_and_nests(self):
        bus = EventBus()
        with bus.muted():
            bus.emit(TaskSpawned(task="a", tid=1))
            with bus.muted():
                bus.emit(TaskSpawned(task="b", tid=2))
            bus.emit(TaskSpawned(task="c", tid=3))
        bus.emit(TaskSpawned(task="d", tid=4))
        assert [e.task for e in bus] == ["d"]

    def test_subscribers_see_every_event_in_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.tid))
        for tid in (3, 1, 2):
            bus.emit(TaskSpawned(task="t", tid=tid))
        assert seen == [3, 1, 2]

    def test_of_type_filters(self):
        bus = EventBus()
        bus.emit(TaskSpawned(task="a", tid=1))
        bus.emit(FreqChanged(cluster="big", old_khz=1, new_khz=2))
        bus.emit(TaskBlocked(task="a", tid=1))
        assert len(bus.of_type(TaskSpawned, TaskBlocked)) == 2
        assert len(bus.of_type(FreqChanged)) == 1
        assert len(bus) == 3

    def test_event_to_dict_is_flat_json(self):
        d = event_to_dict(TaskMigrated(
            task="render", tid=4, src_core=0, dst_core=5,
            reason="up", load=900.0, tick=12,
        ))
        assert d == {
            "event": "task_migrated", "task": "render", "tid": 4,
            "src_core": 0, "dst_core": 5, "reason": "up",
            "load": 900.0, "tick": 12,
        }


class TestEngineEmissions:
    def test_lifecycle_events_are_balanced(self):
        sim, obs, _trace = _observed_run()
        spawned = obs.bus.of_type(TaskSpawned)
        assert len(spawned) == len(sim.tasks)
        # Wakes and blocks interleave; every woken task blocked before.
        assert len(obs.bus.of_type(TaskWoken)) <= len(obs.bus.of_type(TaskBlocked))

    def test_spawned_events_carry_placement_core(self):
        sim, obs, _trace = _observed_run()
        placed = [e for e in obs.bus.of_type(TaskSpawned) if e.core is not None]
        assert placed, "at least one spawn is immediately runnable"
        n_cores = len(sim.cores)
        assert all(0 <= e.core < n_cores for e in placed)

    def test_migration_events_match_task_accounting(self):
        sim, obs, _trace = _observed_run()
        migrated = obs.bus.of_type(TaskMigrated)
        assert migrated, "bbench migrates under baseline HMP"
        non_balance = [e for e in migrated if e.reason != "balance"]
        assert len(non_balance) == sum(t.migrations for t in sim.tasks)
        assert {e.reason for e in migrated} <= {
            "up", "down", "offload", "balance",
        }

    def test_freq_events_chain_per_cluster(self):
        _sim, obs, _trace = _observed_run()
        for cluster in ("little", "big"):
            changes = [
                e for e in obs.bus.of_type(FreqChanged) if e.cluster == cluster
            ]
            for prev, cur in zip(changes, changes[1:]):
                assert prev.new_khz == cur.old_khz
                assert prev.tick <= cur.tick

    def test_fastforward_events_match_engine_counters(self):
        def _standby(ctx):
            while True:
                yield Work(0.002)
                yield Sleep(1.0)

        def _compute_then_standby(ctx):
            yield Work(2.0)
            yield from _standby(ctx)

        # A standby run takes idle spans only; a compute-bound phase
        # before it adds busy spans.
        for behavior, takes_busy in ((_standby, False), (_compute_then_standby, True)):
            sim = Simulator(SimConfig(max_seconds=10.0))
            obs = Observation.attach(sim)
            sim.spawn(Task("standby", behavior, COMPUTE_BOUND))
            sim.run()
            idle = obs.bus.of_type(IdleFastForward)
            busy = obs.bus.of_type(BusyFastForward)
            assert sim.fastforward_spans > 0, "standby run must fast-forward"
            assert (sim.busy_fastforward_spans > 0) == takes_busy
            assert len(busy) == sim.busy_fastforward_spans
            assert sum(e.n_ticks for e in busy) == sim.busy_fastforward_ticks
            assert idle
            assert len(idle) == sim.fastforward_spans - sim.busy_fastforward_spans
            assert sum(e.n_ticks for e in idle) == (
                sim.fastforward_ticks - sim.busy_fastforward_ticks
            )

    def test_input_boost_events(self):
        from dataclasses import replace

        from repro.sched.params import baseline_config

        base = baseline_config()
        boosted = replace(
            base, governor=replace(base.governor, input_boost_ms=100)
        )
        # Latency apps drive user actions, each opening with a touch event.
        _sim, obs, _trace = _observed_run("bbench", scheduler=boosted)
        boosts = obs.bus.of_type(InputBoost)
        assert boosts, "games deliver touch input"
        assert all(e.cluster in ("little", "big") and e.hispeed_khz > 0
                   for e in boosts)

    def test_thermal_cap_events(self):
        sim = Simulator(SimConfig(
            max_seconds=8.0,
            thermal=ThermalParams(ambient_c=70.0, trip_c=72.0, release_c=71.0),
        ))
        obs = Observation.attach(sim)
        make_app("eternity-warrior-2").install(sim)
        sim.run()
        caps = obs.bus.of_type(ThermalCap)
        assert caps, "a near-throttle ambient must cap the big cluster"
        assert all(e.cluster == "big" and e.cap_khz != e.old_cap_khz
                   for e in caps)
        thermal_freq = [
            e for e in obs.bus.of_type(FreqChanged) if e.reason == "thermal"
        ]
        # A cap below the current OPP also clamps the frequency.
        assert all(e.new_khz < e.old_khz for e in thermal_freq)

    def test_cluster_switch_events(self):
        def _spin(ctx):
            while True:
                yield Work(1.0)

        def _light(ctx):
            while True:
                yield Work(0.001)
                yield Sleep(0.03)

        sim = Simulator(SimConfig(
            max_seconds=3.0, scheduler_factory=ClusterSwitchingScheduler,
        ))
        obs = Observation.attach(sim)
        sim.spawn(Task("spin", _spin, COMPUTE_BOUND))
        sim.spawn(Task("light", _light, COMPUTE_BOUND))
        sim.run()
        switches = obs.bus.of_type(ClusterSwitched)
        assert len(switches) == sim.hmp.switches
        assert switches, "a heavy spinner flips the switcher at least once"
        assert all(e.active in ("little", "big") for e in switches)
        herds = [
            e for e in obs.bus.of_type(TaskMigrated)
            if e.reason == "cluster-switch"
        ]
        assert herds, "switching herds runnable tasks across"

    def test_attach_observer_installs_everywhere(self):
        sim = Simulator(SimConfig(max_seconds=1.0))
        bus = sim.attach_observer(EventBus())
        assert sim.obs is bus
        assert sim.hmp.obs is bus
        assert all(dom.obs is bus for dom in sim.domains.values())


class TestObservationBundle:
    def test_snapshot_is_idempotent_at_end(self):
        _sim, obs, _trace = _observed_run(seconds=2.0)
        a = obs.snapshot()
        b = obs.snapshot()
        assert a.to_dict() == b.to_dict()

    def test_refinalizing_at_other_tick_raises(self):
        sim, obs, _trace = _observed_run(seconds=2.0)
        obs.snapshot()
        with pytest.raises(RuntimeError):
            obs.collector.finalize(sim.tick + 1)
