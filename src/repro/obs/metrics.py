"""Counters, gauges, histograms, and the event-fed metrics collector.

:class:`MetricsRegistry` is a small, dependency-free metrics surface
(counter / gauge / fixed-bucket histogram) that aggregates into a
JSON-serializable :class:`MetricsSnapshot`.  :class:`MetricsCollector`
subscribes to an :class:`~repro.obs.events.EventBus` and folds the
decision-event stream into the registry:

- ``migrations.<reason>`` and ``migrations.total`` counters,
- ``input_boosts``, ``thermal_caps``, ``cluster_switches``,
- ``tasks.spawned/blocked/woken/finished``,
- ``freq_transitions.<cluster>.<old>-><new>`` — the per-cluster OPP
  transition matrix (Figures 9-10 territory),
- ``residency_ticks.<cluster>.<khz>`` — ticks spent at each OPP,
  derived from the change events plus the run length,
- ``fastforward.spans``/``ticks`` (idle spans) and
  ``fastforward.busy_spans``/``busy_ticks`` (busy spans), and the
  ``fastforward_span_ticks`` histogram of both kinds.

The residency and transition numbers are, by construction, consistent
with the run's :class:`~repro.sim.trace.Trace` frequency columns —
``tests/test_obs_metrics.py`` replays the events against the arrays to
prove it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.obs.events import (
    ClusterSwitched,
    EventBus,
    FreqChanged,
    BusyFastForward,
    IdleFastForward,
    InputBoost,
    ObsEvent,
    TaskBlocked,
    TaskFinished,
    TaskMigrated,
    TaskSpawned,
    TaskWoken,
    ThermalCap,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MetricsCollector",
    "FASTFORWARD_BUCKETS_TICKS",
    "TRANSPORT_BUCKETS_BYTES",
    "global_metrics",
    "reset_global_metrics",
]

#: Fixed bucket edges for the fast-forward span-length histogram (ticks;
#: idle and busy spans share it).  Spans shorter than the engine's
#: minimum never occur.
FASTFORWARD_BUCKETS_TICKS: tuple[int, ...] = (
    8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

#: Fixed bucket edges (bytes) for the result-pipeline payload-size
#: histograms: ``runner.transport.result_bytes`` and
#: ``cache.entry_bytes``.  1 KiB .. 64 MiB in powers of four.
TRANSPORT_BUCKETS_BYTES: tuple[int, ...] = (
    1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20,
    1 << 22, 1 << 24, 1 << 26,
)


class Counter:
    """A monotonically increasing integer/float count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram: counts of observations per edge interval.

    ``edges`` are the *upper* bounds of the first ``len(edges)`` buckets;
    one overflow bucket catches everything larger.  Edges are fixed at
    construction so snapshots from different runs are always mergeable
    bucket-by-bucket.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]):
        if not edges or list(edges) != sorted(edges):
            raise ValueError(f"histogram {name} needs sorted, non-empty edges")
        self.name = name
        self.edges = tuple(edges)
        self.counts = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value - 1e-12)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class MetricsSnapshot:
    """A frozen, JSON-serializable aggregate of one run's metrics."""

    counters: dict[str, int | float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: dict(v) for k, v in self.histograms.items()},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MetricsSnapshot":
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            histograms={k: dict(v) for k, v in payload.get("histograms", {}).items()},
        )

    # -- grouped views ---------------------------------------------------

    def counter(self, name: str) -> int | float:
        return self.counters.get(name, 0)

    def group(self, prefix: str) -> dict[str, int | float]:
        """Counters under ``prefix.`` with the prefix stripped."""
        cut = len(prefix) + 1
        return {
            k[cut:]: v for k, v in self.counters.items() if k.startswith(prefix + ".")
        }

    def freq_transitions(self, cluster: str) -> dict[tuple[int, int], int]:
        """The ``(old_khz, new_khz) -> count`` matrix of one cluster."""
        out: dict[tuple[int, int], int] = {}
        for key, value in self.group(f"freq_transitions.{cluster}").items():
            old_s, _, new_s = key.partition("->")
            out[(int(old_s), int(new_s))] = int(value)
        return out

    def residency_ticks(self, cluster: str) -> dict[int, int]:
        """Ticks spent at each OPP of one cluster."""
        return {
            int(k): int(v)
            for k, v in self.group(f"residency_ticks.{cluster}").items()
        }


class MetricsRegistry:
    """Get-or-create store of named counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, edges)
        elif h.edges != tuple(edges):
            raise ValueError(f"histogram {name} re-registered with different edges")
        return h

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={k: c.value for k, c in sorted(self._counters.items())},
            gauges={k: g.value for k, g in sorted(self._gauges.items())},
            histograms={k: h.to_dict() for k, h in sorted(self._histograms.items())},
        )


class MetricsCollector:
    """Folds the event stream into a :class:`MetricsRegistry`.

    Subscribe via ``bus.subscribe(collector.on_event)``.  For frequency
    residency the collector needs the starting OPP of each cluster
    (:meth:`set_initial_freqs`, done by ``Observation.attach``) and the
    final tick count (:meth:`finalize`); everything else is pure event
    folding.

    ``fastforward.spans``/``ticks`` count idle spans only, and
    ``fastforward.busy_spans``/``busy_ticks`` busy ones, whereas
    ``Simulator.fastforward_spans``/``fastforward_ticks`` count both.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        self._last_freq: dict[str, int] = {}
        self._last_change_tick: dict[str, int] = {}
        self._finalized_ticks: Optional[int] = None

    # -- residency bookkeeping -------------------------------------------

    def set_initial_freqs(self, freqs_khz: dict[str, int], tick: int = 0) -> None:
        """Record each cluster's OPP at observation start."""
        for cluster, khz in freqs_khz.items():
            self._last_freq[cluster] = khz
            self._last_change_tick[cluster] = tick

    def _close_residency(self, cluster: str, up_to_tick: int) -> None:
        span = up_to_tick - self._last_change_tick[cluster]
        if span > 0:
            self.registry.counter(
                f"residency_ticks.{cluster}.{self._last_freq[cluster]}"
            ).inc(span)
        self._last_change_tick[cluster] = up_to_tick

    # -- event folding ----------------------------------------------------

    def on_event(self, event: ObsEvent) -> None:
        reg = self.registry
        if isinstance(event, TaskMigrated):
            reg.counter(f"migrations.{event.reason}").inc()
            reg.counter("migrations.total").inc()
        elif isinstance(event, FreqChanged):
            reg.counter(
                f"freq_transitions.{event.cluster}."
                f"{event.old_khz}->{event.new_khz}"
            ).inc()
            if event.cluster in self._last_freq:
                self._close_residency(event.cluster, event.tick)
                self._last_freq[event.cluster] = event.new_khz
        elif isinstance(event, InputBoost):
            reg.counter("input_boosts").inc()
        elif isinstance(event, IdleFastForward):
            reg.counter("fastforward.spans").inc()
            reg.counter("fastforward.ticks").inc(event.n_ticks)
            reg.histogram(
                "fastforward_span_ticks", FASTFORWARD_BUCKETS_TICKS
            ).observe(event.n_ticks)
        elif isinstance(event, BusyFastForward):
            reg.counter("fastforward.busy_spans").inc()
            reg.counter("fastforward.busy_ticks").inc(event.n_ticks)
            reg.histogram(
                "fastforward_span_ticks", FASTFORWARD_BUCKETS_TICKS
            ).observe(event.n_ticks)
        elif isinstance(event, ThermalCap):
            reg.counter("thermal_caps").inc()
        elif isinstance(event, ClusterSwitched):
            reg.counter("cluster_switches").inc()
        elif isinstance(event, TaskSpawned):
            reg.counter("tasks.spawned").inc()
        elif isinstance(event, TaskBlocked):
            reg.counter("tasks.blocked").inc()
        elif isinstance(event, TaskWoken):
            reg.counter("tasks.woken").inc()
        elif isinstance(event, TaskFinished):
            reg.counter("tasks.finished").inc()

    def finalize(self, total_ticks: int) -> None:
        """Close the open residency spans at the end of the run.

        Idempotent for the same ``total_ticks``; called by
        ``Observation.snapshot``.
        """
        if self._finalized_ticks == total_ticks:
            return
        if self._finalized_ticks is not None:
            raise RuntimeError(
                f"collector already finalized at {self._finalized_ticks} ticks"
            )
        for cluster in self._last_freq:
            self._close_residency(cluster, total_ticks)
        self.registry.gauge("total_ticks").set(total_ticks)
        self._finalized_ticks = total_ticks

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()


def attach_collector(bus: EventBus, collector: Optional[MetricsCollector] = None) -> MetricsCollector:
    """Subscribe a (new) collector to ``bus`` and return it."""
    collector = collector or MetricsCollector()
    bus.subscribe(collector.on_event)
    return collector


# ---------------------------------------------------------------------------
# Process-global registry: the result-pipeline metrics family
# ---------------------------------------------------------------------------

#: Per-run metrics live on an ``Observation``'s registry; cross-run
#: infrastructure metrics (worker→parent transport, RLE inflation,
#: cache entry sizes) accumulate here, per process:
#:
#: - ``runner.transport.bytes`` / ``runner.transport.results`` — bytes
#:   and result count shipped back from pool workers (array payload;
#:   RLE results count their encoded size),
#: - ``runner.transport.result_bytes`` — per-result payload histogram,
#: - ``trace.rle.inflations`` / ``trace.rle.inflated_bytes`` — lazy
#:   traces materialized on first dense access,
#: - ``cache.entry_bytes`` (histogram), ``cache.bytes_written`` /
#:   ``cache.bytes_loaded`` / ``cache.hits`` / ``cache.misses`` — the
#:   on-disk result cache's footprint and traffic,
#: - ``cache.corrupt`` — unreadable entries found (and evicted) on load,
#: - ``trace.materializations`` — every ``RLETrace.to_trace`` call; the
#:   lake asserts its queries keep this flat (no densification),
#: - ``lake.*`` — trace-lake activity: ``lake.queries`` /
#:   ``lake.query.entries`` / ``lake.query.skipped_no_trace`` (entries
#:   without a ``trace_summary``: traceless, or written before 1.3.0
#:   without one, which contribute scalars only),
#:   ``lake.kernel_runs`` + ``lake.kernel.<name>``, ``lake.diffs``,
#:   ``lake.catalog.appends`` / ``append_errors`` / ``rebuilds`` /
#:   ``skipped_lines``.
_GLOBAL_REGISTRY = MetricsRegistry()


def global_metrics() -> MetricsRegistry:
    """The process-global registry for result-pipeline metrics."""
    return _GLOBAL_REGISTRY


def reset_global_metrics() -> MetricsRegistry:
    """Swap in a fresh global registry (tests; returns the new one)."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = MetricsRegistry()
    return _GLOBAL_REGISTRY
