"""Exporters: Perfetto/Chrome trace-event JSON, JSONL event logs, text.

The Perfetto export emits the legacy Chrome ``traceEvents`` JSON format
(loadable at ``ui.perfetto.dev`` or ``chrome://tracing``):

- one **counter track per core** (busy fraction) and one per cluster
  (frequency in kHz), emitted at change points only — interactive
  workloads are mostly idle, so this stays small even for long runs;
- **instant events** on a dedicated "decisions" thread for migrations,
  OPP changes, input boosts, thermal caps, and cluster switches;
- **duration events** on an "engine" thread for the fast-forward spans,
  idle and busy.

One simulated tick is 1 ms; trace-event timestamps are microseconds, so
``ts = tick * 1000``.

:func:`validate_trace_events` is the schema check used by the test
suite and by ``scripts/validate_trace_events.py`` in CI: it verifies
the structural invariants the Perfetto importer relies on (known phase,
required keys per phase, numeric counter args) without needing any
external schema package.
"""

from __future__ import annotations

import json
from typing import Any, IO, Iterable, Optional, Union

import numpy as np

from repro.obs.events import (
    ClusterSwitched,
    FreqChanged,
    BusyFastForward,
    IdleFastForward,
    InputBoost,
    ObsEvent,
    TaskFinished,
    TaskMigrated,
    TaskSpawned,
    ThermalCap,
    event_to_dict,
)
from repro.obs.metrics import MetricsSnapshot
from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace

__all__ = [
    "perfetto_trace_events",
    "export_perfetto",
    "export_events_jsonl",
    "export_metrics_json",
    "render_summary",
    "validate_trace_events",
]

#: Microseconds per simulation tick (1 ms tick base).
_TICK_US = 1000

_PID = 1


def _counter_changepoints(values: np.ndarray) -> Iterable[tuple[int, float]]:
    """Yield ``(tick, value)`` at tick 0 and at every value change."""
    if len(values) == 0:
        return
    yield 0, values[0]
    changes = np.flatnonzero(np.diff(values)) + 1
    for tick in changes:
        yield int(tick), values[tick]


def perfetto_trace_events(
    trace: Trace, events: Iterable[ObsEvent] = ()
) -> list[dict[str, Any]]:
    """Build the ``traceEvents`` list for one run.

    ``trace`` provides the per-core busy and per-cluster frequency
    tracks; ``events`` (an iterable of :mod:`repro.obs.events` records,
    e.g. ``EventBus.events``) provides the instant/duration decision
    markers.  Either part is useful alone.
    """
    out: list[dict[str, Any]] = []
    n_cores = trace.n_cores
    decisions_tid = n_cores + 1
    engine_tid = n_cores + 2

    out.append({
        "ph": "M", "pid": _PID, "tid": 0, "name": "process_name",
        "args": {"name": "biglittle-sim"},
    })
    for i, ct in enumerate(trace.core_types):
        suffix = "" if trace.enabled[i] else " (off)"
        out.append({
            "ph": "M", "pid": _PID, "tid": i + 1, "name": "thread_name",
            "args": {"name": f"cpu{i} {ct.value}{suffix}"},
        })
    out.append({
        "ph": "M", "pid": _PID, "tid": decisions_tid, "name": "thread_name",
        "args": {"name": "sched/governor decisions"},
    })
    out.append({
        "ph": "M", "pid": _PID, "tid": engine_tid, "name": "thread_name",
        "args": {"name": "engine"},
    })

    busy = trace.busy
    for i in range(n_cores):
        if not trace.enabled[i]:
            continue
        name = f"busy cpu{i}"
        for tick, value in _counter_changepoints(busy[i]):
            out.append({
                "ph": "C", "pid": _PID, "name": name,
                "ts": tick * _TICK_US, "args": {"busy": round(float(value), 6)},
            })
    for ct in (CoreType.LITTLE, CoreType.BIG):
        name = f"freq {ct.value} (kHz)"
        for tick, value in _counter_changepoints(trace.freq_khz(ct)):
            out.append({
                "ph": "C", "pid": _PID, "name": name,
                "ts": tick * _TICK_US, "args": {"khz": int(value)},
            })

    for event in events:
        ts = max(0, event.tick) * _TICK_US
        if isinstance(event, TaskMigrated):
            out.append({
                "ph": "i", "s": "t", "pid": _PID, "tid": decisions_tid,
                "name": f"migrate {event.task} [{event.reason}]", "ts": ts,
                "args": {
                    "task": event.task, "src_core": event.src_core,
                    "dst_core": event.dst_core, "reason": event.reason,
                    "load": round(event.load, 2),
                },
            })
        elif isinstance(event, FreqChanged):
            out.append({
                "ph": "i", "s": "t", "pid": _PID, "tid": decisions_tid,
                "name": f"freq {event.cluster} "
                        f"{event.old_khz}->{event.new_khz}",
                "ts": ts,
                "args": {
                    "cluster": event.cluster, "old_khz": event.old_khz,
                    "new_khz": event.new_khz, "reason": event.reason,
                },
            })
        elif isinstance(event, InputBoost):
            out.append({
                "ph": "i", "s": "g", "pid": _PID, "tid": decisions_tid,
                "name": "input boost", "ts": ts,
                "args": {"cluster": event.cluster,
                         "hispeed_khz": event.hispeed_khz},
            })
        elif isinstance(event, ThermalCap):
            out.append({
                "ph": "i", "s": "g", "pid": _PID, "tid": decisions_tid,
                "name": f"thermal cap {event.cap_khz} kHz", "ts": ts,
                "args": {"cluster": event.cluster, "cap_khz": event.cap_khz,
                         "old_cap_khz": event.old_cap_khz},
            })
        elif isinstance(event, ClusterSwitched):
            out.append({
                "ph": "i", "s": "g", "pid": _PID, "tid": decisions_tid,
                "name": f"cluster switch -> {event.active}", "ts": ts,
                "args": {"active": event.active,
                         "peak_load": round(event.peak_load, 2)},
            })
        elif isinstance(event, IdleFastForward):
            out.append({
                "ph": "X", "pid": _PID, "tid": engine_tid,
                "name": "idle fast-forward", "ts": ts,
                "dur": event.n_ticks * _TICK_US,
                "args": {"n_ticks": event.n_ticks},
            })
        elif isinstance(event, BusyFastForward):
            out.append({
                "ph": "X", "pid": _PID, "tid": engine_tid,
                "name": "busy fast-forward", "ts": ts,
                "dur": event.n_ticks * _TICK_US,
                "args": {"n_ticks": event.n_ticks},
            })
        elif isinstance(event, (TaskSpawned, TaskFinished)):
            verb = "spawn" if isinstance(event, TaskSpawned) else "finish"
            out.append({
                "ph": "i", "s": "t", "pid": _PID, "tid": engine_tid,
                "name": f"{verb} {event.task}", "ts": ts,
                "args": {"task": event.task, "tid": event.tid},
            })
        # TaskBlocked/TaskWoken are deliberately not rendered: at tens of
        # wakeups per second they would dominate the file while the busy
        # counter tracks already show the same structure.
    return out


def export_perfetto(
    dest: Union[str, IO[str]],
    trace: Trace,
    events: Iterable[ObsEvent] = (),
    metadata: Optional[dict[str, Any]] = None,
) -> int:
    """Write the Chrome/Perfetto trace JSON; returns the event count."""
    trace_events = perfetto_trace_events(trace, events)
    payload: dict[str, Any] = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["otherData"] = metadata
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            json.dump(payload, fh)
    else:
        json.dump(payload, dest)
    return len(trace_events)


def export_events_jsonl(dest: Union[str, IO[str]], events: Iterable[ObsEvent]) -> int:
    """Write one JSON object per line per event (the ``runner.events``
    sink convention); returns the line count."""

    def _write(fh: IO[str]) -> int:
        n = 0
        for event in events:
            fh.write(json.dumps(event_to_dict(event), sort_keys=True) + "\n")
            n += 1
        return n

    if isinstance(dest, str):
        with open(dest, "w") as fh:
            return _write(fh)
    return _write(dest)


def export_metrics_json(dest: Union[str, IO[str]], snapshot: MetricsSnapshot) -> None:
    """Write a :class:`MetricsSnapshot` as pretty-printed JSON."""
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(snapshot.to_json() + "\n")
    else:
        dest.write(snapshot.to_json() + "\n")


def render_summary(snapshot: MetricsSnapshot) -> str:
    """Plain-text run summary of the headline observability metrics."""
    from repro.core.report import render_table

    lines: list[str] = []
    total_ticks = int(snapshot.gauges.get("total_ticks", 0))

    migrations = snapshot.group("migrations")
    total = migrations.pop("total", 0)
    rows = [[reason, count] for reason, count in sorted(migrations.items())]
    rows.append(["total", total])
    lines.append(render_table(
        ["reason", "count"], rows,
        title=f"Migrations ({total_ticks} ticks observed)",
    ))

    counter_rows = [
        [name, snapshot.counter(name)]
        for name in (
            "input_boosts", "thermal_caps", "cluster_switches",
            "tasks.spawned", "tasks.finished", "tasks.blocked", "tasks.woken",
            "fastforward.spans", "fastforward.ticks",
            "fastforward.busy_spans", "fastforward.busy_ticks",
        )
        if name in snapshot.counters
    ]
    if counter_rows:
        lines.append(render_table(["counter", "value"], counter_rows,
                                  title="Decision counters"))

    for cluster in ("little", "big"):
        transitions = snapshot.freq_transitions(cluster)
        residency = snapshot.residency_ticks(cluster)
        if not transitions and not residency:
            continue
        rows = []
        for khz in sorted(residency):
            pct = 100.0 * residency[khz] / total_ticks if total_ticks else 0.0
            ups = sum(n for (o, _), n in transitions.items() if o == khz)
            rows.append([khz, residency[khz], f"{pct:.1f}", ups])
        lines.append(render_table(
            ["kHz", "ticks", "%", "transitions out"], rows,
            title=f"{cluster} cluster OPP residency",
        ))

    hist = snapshot.histograms.get("fastforward_span_ticks")
    if hist and hist["count"]:
        mean = hist["sum"] / hist["count"]
        lines.append(
            f"fast-forward spans (idle+busy): {hist['count']} "
            f"(mean {mean:.0f} ticks, max {hist['max']:.0f})"
        )
    return "\n\n".join(lines)


# ---------------------------------------------------------------------------
# Trace-event schema validation (used by tests and CI)
# ---------------------------------------------------------------------------

_KNOWN_PHASES = frozenset("BEXiICMbnePsStfNODv")


def validate_trace_events(payload: Any) -> list[str]:
    """Structural validation of a Chrome/Perfetto trace-event JSON object.

    Returns a list of human-readable problems (empty = valid).  Checks
    the invariants the importer needs: a ``traceEvents`` list of objects
    whose phases are known, with the per-phase required keys (``ts`` for
    samples, ``dur`` for complete events, numeric ``args`` for counters,
    ``args.name`` for metadata).
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"top level must be an object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        errors.append("'traceEvents' is empty")
    for n, ev in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing event name")
        if not isinstance(ev.get("pid"), int):
            errors.append(f"{where}: missing integer pid")
        if ph != "M":
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{where}: phase {ph!r} needs non-negative ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: complete event needs non-negative dur")
        if ph == "C":
            args = ev.get("args")
            if not isinstance(args, dict) or not args or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in args.values()
            ):
                errors.append(f"{where}: counter needs numeric args")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            errors.append(f"{where}: instant scope must be t/p/g")
        if ph == "M":
            args = ev.get("args")
            if not isinstance(args, dict) or "name" not in args:
                errors.append(f"{where}: metadata needs args.name")
    if len(errors) > 20:
        errors = errors[:20] + [f"... and {len(errors) - 20} more"]
    return errors
