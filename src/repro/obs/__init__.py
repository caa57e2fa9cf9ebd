"""repro.obs — zero-cost simulator observability.

Three layers, composable but independent:

- :mod:`repro.obs.events` — the typed decision-event taxonomy and the
  :class:`~repro.obs.events.EventBus` the engine and schedulers emit
  into (only when attached; a run without an observer does no event
  work at all);
- :mod:`repro.obs.metrics` — counters / gauges / histograms and the
  :class:`~repro.obs.metrics.MetricsCollector` that folds the event
  stream into a JSON-serializable snapshot;
- :mod:`repro.obs.export` — Chrome/Perfetto trace-event JSON, JSONL
  event logs, and plain-text summaries.

:class:`Observation` bundles the three for the common case::

    sim = Simulator(SimConfig(max_seconds=12.0))
    obs = Observation.attach(sim)
    make_app("bbench").install(sim)
    trace = sim.run()
    snap = obs.snapshot()                      # MetricsSnapshot
    export_perfetto("out.json", trace, obs.events)

Also here: :mod:`repro.obs.logsetup` (the CLI/script logging contract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.obs.events import EVENT_TYPES, EventBus, ObsEvent, event_to_dict
from repro.obs.metrics import (
    MetricsCollector,
    MetricsRegistry,
    MetricsSnapshot,
    attach_collector,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.sim.engine import Simulator

__all__ = [
    "EVENT_TYPES",
    "EventBus",
    "MetricsCollector",
    "MetricsRegistry",
    "MetricsSnapshot",
    "ObsEvent",
    "Observation",
    "attach_collector",
    "event_to_dict",
]


class Observation:
    """An attached event bus + metrics collector for one simulator run."""

    def __init__(
        self,
        sim: "Simulator",
        bus: EventBus,
        collector: MetricsCollector,
    ):
        self.sim = sim
        self.bus = bus
        self.collector = collector

    @classmethod
    def attach(cls, sim: "Simulator", bus: Optional[EventBus] = None) -> "Observation":
        """Attach full observability to ``sim`` before it runs.

        Creates (or reuses) an :class:`EventBus` clocked by the
        simulator, subscribes a metrics collector seeded with the
        clusters' current OPPs, and installs the bus on the engine, the
        scheduler, and the frequency domains via
        :meth:`Simulator.attach_observer`.
        """
        if bus is None:
            bus = EventBus(clock=lambda: sim.tick)
        collector = MetricsCollector()
        collector.set_initial_freqs(
            {ct.value: dom.freq_khz for ct, dom in sim.domains.items()},
            tick=sim.tick,
        )
        bus.subscribe(collector.on_event)
        sim.attach_observer(bus)
        return cls(sim, bus, collector)

    @property
    def events(self) -> list[ObsEvent]:
        return self.bus.events

    def snapshot(self) -> MetricsSnapshot:
        """Finalize residency at the current tick and snapshot metrics."""
        self.collector.finalize(self.sim.tick)
        return self.collector.snapshot()
