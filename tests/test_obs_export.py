"""Tests for :mod:`repro.obs.export` — Perfetto, JSONL, summary, validator."""

from __future__ import annotations

import io
import json

from repro.obs import Observation
from repro.obs.events import (
    FreqChanged,
    IdleFastForward,
    TaskMigrated,
    event_to_dict,
)
from repro.obs.export import (
    export_events_jsonl,
    export_metrics_json,
    export_perfetto,
    perfetto_trace_events,
    render_summary,
    validate_trace_events,
)
from repro.sim.engine import SimConfig, Simulator
from repro.workloads.mobile import make_app


def _observed_run(app_name: str = "bbench", seconds: float = 4.0, **config):
    sim = Simulator(SimConfig(max_seconds=seconds, **config))
    obs = Observation.attach(sim)
    make_app(app_name).install(sim)
    trace = sim.run()
    return sim, obs, trace


class TestPerfettoTraceEvents:
    def test_payload_passes_own_validator(self):
        _sim, obs, trace = _observed_run()
        events = perfetto_trace_events(trace, obs.events)
        assert validate_trace_events({"traceEvents": events}) == []

    def test_metadata_names_every_core_and_aux_threads(self):
        _sim, obs, trace = _observed_run()
        events = perfetto_trace_events(trace, obs.events)
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert "biglittle-sim" in names
        for i, ct in enumerate(trace.core_types):
            assert f"cpu{i} {ct.value}" in names
        assert "sched/governor decisions" in names
        assert "engine" in names

    def test_disabled_cores_are_marked_and_untracked(self):
        from repro.platform.chip import CoreConfig

        _sim, obs, trace = _observed_run(
            core_config=CoreConfig(little=2, big=1), seconds=2.0,
        )
        events = perfetto_trace_events(trace, obs.events)
        meta_names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
        }
        off = [n for n in meta_names if n.endswith("(off)")]
        assert off, "a reduced config leaves some cores disabled"
        counters = {e["name"] for e in events if e["ph"] == "C"}
        for i in range(trace.n_cores):
            if not trace.enabled[i]:
                assert f"busy cpu{i}" not in counters

    def test_counters_are_changepoint_compressed(self):
        _sim, obs, trace = _observed_run()
        events = perfetto_trace_events(trace, obs.events)
        busy0 = [e for e in events if e["ph"] == "C" and e["name"] == "busy cpu0"]
        assert busy0
        assert len(busy0) < len(trace)
        # Counter samples never repeat the same value back-to-back.
        values = [e["args"]["busy"] for e in busy0]
        assert all(a != b for a, b in zip(values, values[1:]))

    def test_decision_instants_present(self):
        _sim, obs, trace = _observed_run()
        events = perfetto_trace_events(trace, obs.events)
        instants = [e for e in events if e["ph"] == "i"]
        n_migrations = len(obs.bus.of_type(TaskMigrated))
        migrate_instants = [
            e for e in instants if e["name"].startswith("migrate ")
        ]
        assert len(migrate_instants) == n_migrations
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == len(obs.bus.of_type(IdleFastForward))
        for e in spans:
            assert e["dur"] == e["args"]["n_ticks"] * 1000

    def test_timestamps_are_microseconds(self):
        _sim, obs, trace = _observed_run()
        events = perfetto_trace_events(trace, obs.events)
        migs = obs.bus.of_type(TaskMigrated)
        migrate_instants = [
            e for e in events
            if e["ph"] == "i" and e["name"].startswith("migrate ")
        ]
        for src, rendered in zip(migs, migrate_instants):
            assert rendered["ts"] == src.tick * 1000

    def test_trace_alone_is_exportable(self):
        _sim, _obs, trace = _observed_run(seconds=2.0)
        events = perfetto_trace_events(trace)
        assert validate_trace_events({"traceEvents": events}) == []
        assert not any(e["ph"] in ("i", "X") for e in events)


class TestExportDestinations:
    def test_export_perfetto_to_path_and_stream(self, tmp_path):
        _sim, obs, trace = _observed_run(seconds=2.0)
        dest = tmp_path / "trace.json"
        n = export_perfetto(str(dest), trace, obs.events,
                            metadata={"app": "bbench"})
        payload = json.loads(dest.read_text())
        assert len(payload["traceEvents"]) == n
        assert payload["otherData"] == {"app": "bbench"}
        assert payload["displayTimeUnit"] == "ms"
        assert validate_trace_events(payload) == []

        buf = io.StringIO()
        n2 = export_perfetto(buf, trace, obs.events)
        stream_payload = json.loads(buf.getvalue())
        assert n2 == n
        assert "otherData" not in stream_payload

    def test_export_events_jsonl_round_trip(self, tmp_path):
        _sim, obs, _trace = _observed_run(seconds=2.0)
        dest = tmp_path / "events.jsonl"
        n = export_events_jsonl(str(dest), obs.events)
        lines = dest.read_text().splitlines()
        assert len(lines) == n == len(obs.bus)
        parsed = [json.loads(line) for line in lines]
        assert parsed == [event_to_dict(e) for e in obs.events]
        # Every line is self-describing and tick-stamped.
        assert all("event" in d and d["tick"] >= 0 for d in parsed)

    def test_export_metrics_json(self, tmp_path):
        _sim, obs, _trace = _observed_run(seconds=2.0)
        dest = tmp_path / "metrics.json"
        export_metrics_json(str(dest), obs.snapshot())
        payload = json.loads(dest.read_text())
        assert payload == obs.snapshot().to_dict()


class TestRenderSummary:
    def test_summary_mentions_headline_sections(self):
        _sim, obs, _trace = _observed_run()
        text = render_summary(obs.snapshot())
        assert "Migrations" in text
        assert "little cluster OPP residency" in text
        assert "big cluster OPP residency" in text
        assert "total" in text

    def test_summary_lists_busy_fastforward_counters(self):
        from repro.platform.perfmodel import COMPUTE_BOUND
        from repro.sim.task import Task, Work

        def _spin(ctx):
            while True:
                yield Work(50.0)

        sim = Simulator(SimConfig(max_seconds=2.0))
        obs = Observation.attach(sim)
        sim.spawn(Task("spin", _spin, COMPUTE_BOUND))
        sim.run()
        assert sim.busy_fastforward_spans > 0
        rows = dict(
            line.split()
            for line in render_summary(obs.snapshot()).splitlines()
            if line.strip().startswith("fastforward.")
        )
        assert rows["fastforward.busy_spans"] == str(sim.busy_fastforward_spans)
        assert rows["fastforward.busy_ticks"] == str(sim.busy_fastforward_ticks)

    def test_summary_of_empty_snapshot_is_harmless(self):
        from repro.obs.metrics import MetricsSnapshot

        text = render_summary(MetricsSnapshot())
        assert "Migrations" in text


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events(None) != []

    def test_rejects_missing_trace_events(self):
        assert validate_trace_events({}) == ["missing or non-list 'traceEvents'"]

    def test_flags_structural_problems(self):
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "ts": 0},          # unknown phase
            {"ph": "i", "pid": 1, "ts": 0},                        # no name
            {"ph": "C", "name": "c", "pid": 1, "ts": 0,
             "args": {"v": "high"}},                               # non-numeric
            {"ph": "X", "name": "d", "pid": 1, "ts": 0},           # no dur
            {"ph": "i", "name": "s", "pid": 1, "ts": -5, "s": "q"},  # bad ts+scope
            {"ph": "M", "name": "thread_name", "pid": 1, "args": {}},  # no name
        ]}
        errors = validate_trace_events(bad)
        assert len(errors) >= 6

    def test_error_list_is_capped(self):
        bad = {"traceEvents": [{"ph": "Z"}] * 100}
        errors = validate_trace_events(bad)
        assert len(errors) == 21
        assert errors[-1].startswith("... and ")
