"""Typed decision events and the event bus that carries them.

The simulator's :class:`~repro.sim.trace.Trace` answers *what* happened
each tick (busy fractions, frequencies, power); the events here answer
*why*: which task the HMP pass migrated and in which direction, what
made a governor change its OPP, when an input boost fired, where the
engine fast-forwarded over an idle or busy span.  Experiments that previously
reverse-engineered scheduler intent from the raw per-tick arrays
(Figures 9-13, Table V) can consume these records directly.

Design constraints:

- **Zero cost when disabled.**  Every emission site in the engine and
  the scheduler/governor modules sits behind a single
  ``if self.obs is not None:`` guard, so a run without an observer
  allocates no event objects and does no extra work beyond that one
  attribute test (``tests/test_obs_overhead.py`` enforces this with a
  counting stub).
- **Bit-exact traces either way.**  Observation only records decisions;
  it never feeds back into them.  The golden-trace fastpath suite is
  required to pass with observability both on and off.
- **Slotted, JSON-friendly records.**  Events are ``slots=True``
  dataclasses carrying primitive fields (task *names*, not task
  objects), so they serialize with :func:`dataclasses.asdict` and stay
  cheap to allocate on the hot path when observation *is* enabled.

Ticks are stamped by the bus: :meth:`EventBus.emit` fills ``tick`` from
its clock unless the emitter already set it (a fast-forward span, idle
or busy, replays governor decisions with explicit historical ticks).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar, Iterator, Optional

__all__ = [
    "EventBus",
    "ObsEvent",
    "EVENT_TYPES",
    "TaskSpawned",
    "TaskBlocked",
    "TaskWoken",
    "TaskFinished",
    "TaskMigrated",
    "FreqChanged",
    "InputBoost",
    "IdleFastForward",
    "BusyFastForward",
    "ThermalCap",
    "ClusterSwitched",
]


@dataclass(slots=True)
class TaskSpawned:
    """A task was registered with the engine (and possibly placed)."""

    kind: ClassVar[str] = "task_spawned"
    task: str
    tid: int
    core: Optional[int] = None
    tick: int = -1


@dataclass(slots=True)
class TaskBlocked:
    """A task left the runnable state (``state``: sleeping | waiting)."""

    kind: ClassVar[str] = "task_blocked"
    task: str
    tid: int
    state: str = "sleeping"
    core: Optional[int] = None
    tick: int = -1


@dataclass(slots=True)
class TaskWoken:
    """A blocked task became runnable and was placed on ``core``.

    ``core`` is ``None`` when the task immediately blocked again
    (chained sleeps) before any placement happened.
    """

    kind: ClassVar[str] = "task_woken"
    task: str
    tid: int
    core: Optional[int] = None
    tick: int = -1


@dataclass(slots=True)
class TaskFinished:
    """A task's behaviour generator ran to completion."""

    kind: ClassVar[str] = "task_finished"
    task: str
    tid: int
    total_busy_s: float = 0.0
    tick: int = -1


@dataclass(slots=True)
class TaskMigrated:
    """The scheduler moved a task between cores.

    ``reason`` attributes the decision to the rule that made it:

    - ``"up"`` / ``"down"`` — Algorithm 1 threshold migrations,
    - ``"offload"`` — big-cluster overload relief onto an idle little,
    - ``"balance"`` — intra-cluster runqueue balancing,
    - ``"efficiency"`` / ``"parallelism"`` — the extension schedulers'
      ranking passes,
    - ``"cluster-switch"`` — whole-world herding by the first-generation
      switcher.
    """

    kind: ClassVar[str] = "task_migrated"
    task: str
    tid: int
    src_core: int = -1
    dst_core: int = -1
    reason: str = "up"
    load: float = 0.0
    tick: int = -1


@dataclass(slots=True)
class FreqChanged:
    """A cluster frequency domain moved to a new OPP.

    ``reason`` is ``"governor"`` for ordinary DVFS decisions and
    ``"thermal"`` when a thermal cap forced the clamp.
    """

    kind: ClassVar[str] = "freq_changed"
    cluster: str
    old_khz: int
    new_khz: int
    reason: str = "governor"
    tick: int = -1


@dataclass(slots=True)
class InputBoost:
    """A user-input event armed a governor's touch boost window."""

    kind: ClassVar[str] = "input_boost"
    cluster: str
    hispeed_khz: int = 0
    tick: int = -1


@dataclass(slots=True)
class IdleFastForward:
    """The engine skipped ``n_ticks`` fully-idle ticks in one span."""

    kind: ClassVar[str] = "idle_fast_forward"
    n_ticks: int
    tick: int = -1


@dataclass(slots=True)
class BusyFastForward:
    """The engine replayed ``n_ticks`` busy steady-state ticks in one span."""

    kind: ClassVar[str] = "busy_fast_forward"
    n_ticks: int
    tick: int = -1


@dataclass(slots=True)
class ThermalCap:
    """The thermal model changed the big cluster's frequency cap."""

    kind: ClassVar[str] = "thermal_cap"
    cluster: str
    cap_khz: int
    old_cap_khz: int = 0
    tick: int = -1


@dataclass(slots=True)
class ClusterSwitched:
    """The cluster-switching scheduler moved the world to ``active``."""

    kind: ClassVar[str] = "cluster_switched"
    active: str
    peak_load: float = 0.0
    tick: int = -1


ObsEvent = (
    TaskSpawned
    | TaskBlocked
    | TaskWoken
    | TaskFinished
    | TaskMigrated
    | FreqChanged
    | InputBoost
    | IdleFastForward
    | BusyFastForward
    | ThermalCap
    | ClusterSwitched
)

#: Every concrete event class, for exporters and the overhead stub.
EVENT_TYPES: tuple[type, ...] = (
    TaskSpawned,
    TaskBlocked,
    TaskWoken,
    TaskFinished,
    TaskMigrated,
    FreqChanged,
    InputBoost,
    IdleFastForward,
    BusyFastForward,
    ThermalCap,
    ClusterSwitched,
)


def event_to_dict(event: ObsEvent) -> dict:
    """One flat JSON-serializable dict, ``event`` key first."""
    payload = {"event": type(event).kind}
    payload.update(asdict(event))
    return payload


class EventBus:
    """Ordered in-memory event log with optional live subscribers.

    The bus records every emitted event in order and fans it out to
    subscriber callbacks (the metrics collector, tests, streaming
    sinks).  A ``clock`` callable — typically ``lambda: sim.tick`` —
    stamps each event's ``tick`` at emission unless the emitter set it
    explicitly (``tick >= 0``).
    """

    __slots__ = ("events", "_clock", "_subscribers", "_mute_depth")

    def __init__(self, clock: Optional[Callable[[], int]] = None):
        self.events: list[ObsEvent] = []
        self._clock = clock
        self._subscribers: list[Callable[[ObsEvent], None]] = []
        self._mute_depth = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def subscribe(self, callback: Callable[[ObsEvent], None]) -> None:
        self._subscribers.append(callback)

    def emit(self, event: ObsEvent) -> None:
        """Stamp, record, and fan out one event (no-op while muted)."""
        if self._mute_depth:
            return
        if event.tick < 0 and self._clock is not None:
            event.tick = self._clock()
        self.events.append(event)
        for callback in self._subscribers:
            callback(event)

    @contextmanager
    def muted(self) -> Iterator[None]:
        """Suppress emissions inside the block.

        Used by the engine's fast-forward spans, idle and busy: governors
        replay the span through the ordinary ``set_freq`` path, whose
        emissions would carry the span's *start* tick; the engine mutes
        that replay and re-emits the changes with their exact historical
        ticks instead.
        """
        self._mute_depth += 1
        try:
            yield
        finally:
            self._mute_depth -= 1

    def of_type(self, *types: type) -> list[ObsEvent]:
        """The recorded events that are instances of ``types``, in order."""
        return [e for e in self.events if isinstance(e, types)]
