"""Tests for :mod:`repro.obs.metrics` — primitives, collector, snapshot."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import Observation
from repro.obs.events import FreqChanged, TaskMigrated
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsCollector,
    MetricsRegistry,
    MetricsSnapshot,
    attach_collector,
)
from repro.platform.coretypes import CoreType
from repro.sim.engine import SimConfig, Simulator
from repro.workloads.mobile import make_app


def _observed_run(app_name: str = "bbench", seconds: float = 4.0, **config):
    sim = Simulator(SimConfig(max_seconds=seconds, **config))
    obs = Observation.attach(sim)
    make_app(app_name).install(sim)
    trace = sim.run()
    return sim, obs, trace


class TestPrimitives:
    def test_counter_accumulates_and_rejects_negative(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_last_set(self):
        g = Gauge("level")
        g.set(3.5)
        g.set(-1.0)
        assert g.value == -1.0

    def test_histogram_buckets_and_stats(self):
        h = Histogram("lat", edges=(1, 10, 100))
        for v in (0.5, 1, 5, 10, 11, 1000):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 6
        assert d["sum"] == pytest.approx(1027.5)
        assert d["min"] == 0.5
        assert d["max"] == 1000
        # Buckets are (-inf,1], (1,10], (10,100], (100,inf).
        assert d["counts"] == [2, 2, 1, 1]

    def test_histogram_edge_values_land_in_closed_bucket(self):
        h = Histogram("x", edges=(8, 16))
        h.observe(8)
        h.observe(16)
        counts = h.to_dict()["counts"]
        assert counts[0] == 1
        assert counts[1] == 1

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("migrations.up")
        b = reg.counter("migrations.up")
        assert a is b
        with pytest.raises(ValueError):
            reg.histogram("h", edges=(1, 2))
            reg.histogram("h", edges=(1, 3))


class TestSnapshotRoundTrip:
    def test_json_round_trip(self):
        _sim, obs, _trace = _observed_run(seconds=2.0)
        snap = obs.snapshot()
        restored = MetricsSnapshot.from_dict(json.loads(snap.to_json()))
        assert restored.to_dict() == snap.to_dict()

    def test_group_prefix_selects(self):
        _sim, obs, _trace = _observed_run(seconds=2.0)
        snap = obs.snapshot()
        group = snap.group("migrations")
        assert group
        assert "total" in group
        assert group["total"] == snap.counter("migrations.total")


class TestCollectorTraceConsistency:
    """The snapshot must agree with the ground-truth Trace arrays."""

    def test_migration_total_matches_task_accounting(self):
        sim, obs, _trace = _observed_run()
        snap = obs.snapshot()
        total = snap.counter("migrations.total")
        balance = snap.counter("migrations.balance")
        assert total - balance == sum(t.migrations for t in sim.tasks)
        assert total == len(obs.bus.of_type(TaskMigrated))

    def test_freq_events_reconstruct_trace_series(self):
        sim, obs, trace = _observed_run()
        for ct in (CoreType.LITTLE, CoreType.BIG):
            series = np.empty(len(trace), dtype=np.int64)
            changes = [
                e for e in obs.bus.of_type(FreqChanged)
                if e.cluster == ct.value
            ]
            # Seed from the frequency before the first change (or the
            # whole-run frequency when the governor never moved).
            recorded = trace.freq_khz(ct)
            series[:] = changes[0].old_khz if changes else recorded[0]
            for e in changes:
                series[e.tick:] = e.new_khz
            assert np.array_equal(series, recorded)

    def test_residency_sums_to_run_length(self):
        _sim, obs, trace = _observed_run()
        snap = obs.snapshot()
        for cluster in ("little", "big"):
            residency = snap.residency_ticks(cluster)
            assert sum(residency.values()) == len(trace)

    def test_freq_transitions_match_event_pairs(self):
        _sim, obs, _trace = _observed_run()
        snap = obs.snapshot()
        for cluster in ("little", "big"):
            changes = [
                e for e in obs.bus.of_type(FreqChanged)
                if e.cluster == cluster
            ]
            expected: dict[tuple[int, int], int] = {}
            for e in changes:
                key = (e.old_khz, e.new_khz)
                expected[key] = expected.get(key, 0) + 1
            assert snap.freq_transitions(cluster) == expected

    def test_fastforward_histogram_matches_engine(self):
        from repro.platform.perfmodel import COMPUTE_BOUND
        from repro.sim.task import Sleep, Task, Work

        def _standby(ctx):
            while True:
                yield Work(0.002)
                yield Sleep(1.0)

        def _compute_then_standby(ctx):
            yield Work(2.0)
            yield from _standby(ctx)

        # ``fastforward.spans``/``ticks`` count idle spans, the ``busy_``
        # pair busy ones; the histogram covers both kinds.
        for behavior, takes_busy in ((_standby, False), (_compute_then_standby, True)):
            sim = Simulator(SimConfig(max_seconds=10.0))
            obs = Observation.attach(sim)
            sim.spawn(Task("standby", behavior, COMPUTE_BOUND))
            sim.run()
            snap = obs.snapshot()
            assert (sim.busy_fastforward_spans > 0) == takes_busy
            assert snap.counter("fastforward.spans") == (
                sim.fastforward_spans - sim.busy_fastforward_spans
            )
            assert snap.counter("fastforward.ticks") == (
                sim.fastforward_ticks - sim.busy_fastforward_ticks
            )
            assert snap.counter("fastforward.busy_spans") == sim.busy_fastforward_spans
            assert snap.counter("fastforward.busy_ticks") == sim.busy_fastforward_ticks
            hist = snap.histograms["fastforward_span_ticks"]
            assert hist["count"] == sim.fastforward_spans
            assert hist["sum"] == sim.fastforward_ticks

    def test_total_ticks_gauge(self):
        sim, obs, trace = _observed_run(seconds=2.0)
        snap = obs.snapshot()
        assert snap.gauges["total_ticks"] == sim.tick == len(trace)


class TestAttachCollector:
    def test_attach_collector_subscribes(self):
        from repro.obs.events import EventBus

        bus = EventBus()
        collector = attach_collector(bus)
        assert isinstance(collector, MetricsCollector)
        bus.emit(TaskMigrated(task="t", tid=1, src_core=0, dst_core=4,
                              reason="up", tick=3))
        collector.finalize(10)
        snap = collector.snapshot()
        assert snap.counter("migrations.up") == 1
        assert snap.counter("migrations.total") == 1
