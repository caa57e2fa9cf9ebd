"""Tasks, behaviour directives, and signalling channels.

A *task* models one Linux thread.  Its behaviour is an ordinary Python
generator that yields **directives**:

- :class:`Work` — compute some number of abstract work units (optionally
  with a specific :class:`~repro.platform.perfmodel.WorkClass`),
- :class:`Sleep` / :class:`SleepUntil` — block for / until a time,
- :class:`WaitSignal` — block until another task posts on a
  :class:`Channel` (counting-semaphore semantics, so signals posted while
  the consumer is busy are not lost).

The generator receives a :class:`TaskContext` giving it the current
simulation time and a private RNG stream, so workload models can script
arbitrarily rich behaviour (user action scripts, 60 Hz frame loops,
producer/consumer pipelines) in plain Python.

Example::

    def frame_loop(ctx: TaskContext):
        while True:
            yield Work(0.004)               # ~4 ms of little-core work
            ctx.app_log.append(ctx.now_s)   # frame completed
            yield SleepUntil(ctx.next_vsync())
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.platform.perfmodel import WorkClass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulator
    from repro.sim.rng import RngStream


@dataclass
class Work:
    """Compute ``units`` work units (see :mod:`repro.units`)."""

    units: float
    work_class: Optional[WorkClass] = None

    def __post_init__(self) -> None:
        if self.units < 0:
            raise ValueError(f"work units must be non-negative, got {self.units}")


@dataclass(frozen=True)
class Sleep:
    """Block for ``seconds`` of simulated time."""

    seconds: float

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ValueError(f"sleep duration must be non-negative, got {self.seconds}")


@dataclass(frozen=True)
class SleepUntil:
    """Block until absolute simulation time ``time_s`` (no-op if past)."""

    time_s: float


@dataclass(frozen=True)
class WaitSignal:
    """Block until ``count`` signals are available on ``channel``."""

    channel: "Channel"
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


Directive = Work | Sleep | SleepUntil | WaitSignal
Behavior = Generator[Directive, None, None]
BehaviorFactory = Callable[["TaskContext"], Behavior]


class Channel:
    """A counting signal channel between tasks.

    ``post()`` adds permits; a task yielding :class:`WaitSignal` consumes
    them, blocking until enough are available.  Wakeups are resolved by
    the engine at the next tick boundary, which models (generously) the
    ~sub-millisecond futex/binder wake latency of the real platform.
    """

    def __init__(self, name: str = "chan"):
        self.name = name
        self.permits = 0
        # FIFO of (task, needed) waiters, managed by the engine.  A deque
        # keeps the engine's head-of-line wake O(1) instead of list.pop(0).
        self.waiters: deque[tuple["Task", int]] = deque()

    def __repr__(self) -> str:
        return f"Channel({self.name!r}, permits={self.permits}, waiters={len(self.waiters)})"

    def post(self, count: int = 1) -> None:
        """Make ``count`` permits available (consumed FIFO by waiters)."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.permits += count


class TaskState(enum.Enum):
    RUNNABLE = "runnable"
    SLEEPING = "sleeping"
    WAITING = "waiting"
    FINISHED = "finished"


class TaskContext:
    """Execution context handed to a task's behaviour generator."""

    def __init__(self, task: "Task", sim: "Simulator", rng: RngStream):
        self._task = task
        self._sim = sim
        self.rng = rng

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds (tick granularity)."""
        return self._sim.now_s

    @property
    def task_name(self) -> str:
        return self._task.name

    def request_stop(self) -> None:
        """Ask the simulation to stop at the end of the current tick."""
        self._sim.request_stop()

    def notify_input(self) -> None:
        """Report a user-input event (drives governor touch boosting)."""
        self._sim.notify_input()


_WORK_EPS_UNITS = 1e-12
_TIME_EPS_S = 1e-12


class Task:
    """Runtime state of one simulated thread."""

    _next_tid = 1

    def __init__(
        self,
        name: str,
        behavior: BehaviorFactory,
        work_class: WorkClass,
        initial_load: float = 0.0,
    ):
        self.tid = Task._next_tid
        Task._next_tid += 1
        self.name = name
        self._behavior_factory = behavior
        self.work_class = work_class
        self.initial_load = initial_load
        # Attached by the engine at spawn time: the load tracker's decay
        # half-life is a scheduler parameter (the paper's "time weight"),
        # not a property of the task.
        self.load = None

        self.state = TaskState.RUNNABLE
        self.core_id: Optional[int] = None
        self.last_core_id: Optional[int] = None
        self.wake_tick: Optional[int] = None
        self.blocked_at_tick: Optional[int] = None

        self._gen: Optional[Behavior] = None
        self._current: Optional[Directive] = None
        self._remaining_units = 0.0
        #: The work class of the directive being executed right now: a
        #: ``Work`` directive's own class, else the task's.  Kept by
        #: :meth:`_advance` on every directive change, since the engine
        #: reads it on every execution step (and, for the activity
        #: factor, after the task blocks or finishes).
        self.current_work_class: WorkClass = work_class

        # Per-tick accounting, reset by the engine each tick.
        self.busy_in_tick_s = 0.0
        self.runnable_at_tick_start = False

        # Lifetime accounting.
        self.total_busy_s = 0.0
        self.migrations = 0

    def __repr__(self) -> str:
        return f"Task({self.name!r}, tid={self.tid}, state={self.state.value})"

    def start(self, sim: "Simulator", rng: RngStream) -> None:
        """Instantiate the behaviour generator and fetch the first directive."""
        if self._gen is not None:
            raise RuntimeError(f"task {self.name} already started")
        ctx = TaskContext(self, sim, rng)
        self._gen = self._behavior_factory(ctx)
        self._advance(sim)

    @property
    def remaining_units(self) -> float:
        return self._remaining_units

    def run_for(self, budget_s: float, throughput, sim: "Simulator") -> float:
        """Execute up to ``budget_s`` seconds of this task on some core.

        ``throughput[work_class] -> units/sec`` encapsulates the core,
        frequency and contention.  Returns the CPU seconds actually
        consumed; on return the task either exhausted the budget,
        blocked, or finished.
        """
        if self.state is not TaskState.RUNNABLE:
            raise RuntimeError(f"run_for on non-runnable task {self.name}")
        used = 0.0
        while budget_s - used > _TIME_EPS_S and self.state is TaskState.RUNNABLE:
            if not isinstance(self._current, Work):
                raise RuntimeError(
                    f"runnable task {self.name} has non-Work directive {self._current}"
                )
            if self._remaining_units <= _WORK_EPS_UNITS:
                self._advance(sim)
                continue
            tput = throughput[self.current_work_class]
            need_s = self._remaining_units / tput
            dt = min(need_s, budget_s - used)
            self._remaining_units -= dt * tput
            used += dt
            if self._remaining_units <= _WORK_EPS_UNITS:
                self._remaining_units = 0.0
                self._advance(sim)
        self.busy_in_tick_s += used
        self.total_busy_s += used
        return used

    def fastforward_steady(self, share_s: float, throughput: float, ticks: int) -> None:
        """Replay ``ticks`` steady-state execution ticks in one call.

        Bit-exact twin of what ``ticks`` reference ticks do to this task
        when it is the whole time runnable on one core with a constant
        processor-sharing slice of ``share_s`` seconds and a constant
        ``throughput`` (units/s): each tick consumes ``share_s * throughput``
        work units and ``share_s`` CPU seconds.  The caller (the engine's
        busy fast-forward) has already proven the work cannot run out —
        ``remaining_units`` stays above the exhaustion epsilon for every
        tick of the span — so no directive can fire mid-span.

        The decrements are replayed as a tight scalar loop in the same
        order as :meth:`run_for` (``rem -= share*tput`` then the busy-time
        adds), not as closed-form multiplication, to keep the floats
        identical to tick-by-tick execution.
        """
        if self.state is not TaskState.RUNNABLE:
            raise RuntimeError(f"fastforward_steady on non-runnable task {self.name}")
        dec = share_s * throughput
        rem = self._remaining_units
        total = self.total_busy_s
        for _ in range(ticks):
            rem -= dec
            total += share_s
        if rem <= _WORK_EPS_UNITS:
            raise RuntimeError(
                f"fastforward_steady exhausted work of task {self.name}"
            )
        self._remaining_units = rem
        self.total_busy_s = total
        self.busy_in_tick_s = share_s

    def _advance(self, sim: "Simulator") -> None:
        """Pull the next directive from the generator and apply it.

        Loops past zero-length directives (``Work(0)``, ``Sleep(0)``,
        ``SleepUntil`` in the past, immediately-satisfiable waits) so the
        task is left either runnable-with-work, blocked, or finished.
        """
        assert self._gen is not None
        while True:
            try:
                directive = next(self._gen)
            except StopIteration:
                self.state = TaskState.FINISHED
                self._current = None
                self.current_work_class = self.work_class
                sim.on_task_finished(self)
                return
            self._current = directive
            if isinstance(directive, Work):
                work_class = directive.work_class
                self.current_work_class = (
                    self.work_class if work_class is None else work_class
                )
                if directive.units <= _WORK_EPS_UNITS:
                    continue
                self._remaining_units = directive.units
                self.state = TaskState.RUNNABLE
                return
            self.current_work_class = self.work_class
            if isinstance(directive, Sleep):
                wake = sim.tick_for_time(sim.now_s + directive.seconds)
                if wake <= sim.tick:
                    continue
                self.state = TaskState.SLEEPING
                self.wake_tick = wake
                sim.on_task_blocked(self)
                return
            if isinstance(directive, SleepUntil):
                wake = sim.tick_for_time(directive.time_s)
                if wake <= sim.tick:
                    continue
                self.state = TaskState.SLEEPING
                self.wake_tick = wake
                sim.on_task_blocked(self)
                return
            if isinstance(directive, WaitSignal):
                chan = directive.channel
                if chan.permits >= directive.count and not chan.waiters:
                    chan.permits -= directive.count
                    continue
                self.state = TaskState.WAITING
                chan.waiters.append((self, directive.count))
                sim.on_task_blocked(self)
                sim.watch_channel(chan)
                return
            raise TypeError(f"unknown directive from task {self.name}: {directive!r}")
