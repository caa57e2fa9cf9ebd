"""Per-core runtime state and intra-tick execution.

Each :class:`SimCore` owns a runqueue of tasks.  Within one engine tick
the core executes its runnable tasks under **processor sharing** with
water-filling: the tick's wall time is divided equally among runnable
tasks, and time unused by tasks that block or finish early is
redistributed to the remaining ones.  This yields continuous per-tick
busy fractions and per-task CPU time without sub-tick event scheduling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.platform.coretypes import CoreSpec, CoreType
from repro.platform.perfmodel import WorkClass, cached_throughput
from repro.sim.task import Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

_TIME_EPS_S = 1e-12


class ThroughputTable(dict):
    """Throughput (units/s) by work class of one core spec at one
    ``(freq_khz, memory_contention)`` point.

    A hit is a plain dict lookup; a miss fills the entry from
    :func:`cached_throughput`, so every value equals it exactly.
    """

    __slots__ = ("spec", "freq_khz", "memory_contention")

    def __init__(self, spec: CoreSpec, freq_khz: int, memory_contention: float):
        super().__init__()
        self.spec = spec
        self.freq_khz = freq_khz
        self.memory_contention = memory_contention

    def __missing__(self, work_class: WorkClass) -> float:
        value = self[work_class] = cached_throughput(
            self.spec, self.freq_khz, work_class, self.memory_contention
        )
        return value


class SimCore:
    """One physical core: identity, runqueue, and per-tick accounting."""

    def __init__(self, core_id: int, spec: CoreSpec, enabled: bool, max_freq_khz: int):
        self.core_id = core_id
        self.spec = spec
        self.core_type: CoreType = spec.core_type
        self.enabled = enabled
        self.max_freq_khz = max_freq_khz
        self.freq_khz = 0  # set by the engine/governor before execution
        self.runqueue: list[Task] = []

        # Per-tick accounting (reset each tick).
        self.busy_in_tick_s = 0.0
        self.activity_weighted_s = 0.0
        self.tick_tasks: list[Task] = []
        self.nr_start = 0

        # Governor window accounting (reset each governor sample).
        self.busy_in_window_s = 0.0

        # cpuidle: consecutive fully-idle ticks (engine-maintained).
        self.idle_ticks = 0

        # DRAM contention multiplier for this tick (engine-maintained,
        # derived from the previous tick's busy core count).
        self.memory_contention = 1.0

        # Throughput tables keyed by (freq_khz, contention): the spec is
        # fixed per core, so it stays out of the key.
        self._tput: dict[tuple[int, float], ThroughputTable] = {}

    def __repr__(self) -> str:
        return (
            f"SimCore({self.core_id}, {self.spec.core_type.value}, "
            f"{'on' if self.enabled else 'off'}, rq={len(self.runqueue)})"
        )

    def nr_running(self) -> int:
        """Number of runnable tasks queued on this core.

        Every task on a runqueue is RUNNABLE: a task leaves that state
        only by blocking or finishing, and the engine's
        ``on_task_blocked``/``on_task_finished`` dequeue it in both cases.
        """
        return len(self.runqueue)

    def queued_load(self) -> float:
        """Sum of tracked loads of runnable tasks (for balancing decisions)."""
        return sum(t.load.value for t in self.runqueue if t.state is TaskState.RUNNABLE)

    def enqueue(self, task: Task) -> None:
        if task.core_id is not None:
            raise RuntimeError(f"task {task.name} already on core {task.core_id}")
        task.core_id = self.core_id
        self.runqueue.append(task)

    def dequeue(self, task: Task) -> None:
        self.runqueue.remove(task)
        task.last_core_id = self.core_id
        task.core_id = None

    def throughput(self, freq_khz: int, memory_contention: float) -> ThroughputTable:
        """This core's throughput table at one ``(freq_khz, contention)``
        point: the one lookup of execution, span replay and span probe."""
        key = (freq_khz, memory_contention)
        table = self._tput.get(key)
        if table is None:
            table = self._tput[key] = ThroughputTable(self.spec, *key)
        return table

    def begin_tick(self) -> None:
        self.busy_in_tick_s = 0.0
        self.activity_weighted_s = 0.0
        # Every queued task is RUNNABLE (see nr_running).  A task spawned
        # onto the core later in the tick keeps runnable_at_tick_start
        # False and first runs next tick.
        for task in self.runqueue:
            task.busy_in_tick_s = 0.0
            task.runnable_at_tick_start = True
        # Snapshot the tick's participants: tasks that block mid-tick are
        # dequeued immediately, but their load must still be sampled for
        # the portion of the tick they ran (otherwise bursty tasks would
        # never accumulate load).
        self.tick_tasks = list(self.runqueue)
        self.nr_start = len(self.tick_tasks)

    def clear_tick(self) -> None:
        """The per-tick reset of a core that has nothing to run."""
        self.busy_in_tick_s = 0.0
        self.activity_weighted_s = 0.0
        self.tick_tasks = []
        self.nr_start = 0

    def execute_tick(self, tick_s: float, sim: "Simulator") -> None:
        """Run this core's runnable tasks for one tick (water-filling)."""
        if not self.enabled or not self.runqueue:
            return
        remaining = tick_s
        # Frequency and contention are fixed for the whole tick, so one
        # throughput table serves every task and water-filling round.
        throughput = self.throughput(self.freq_khz, self.memory_contention)
        # Tasks woken mid-loop by other cores' posts are handled next tick,
        # so snapshot the runnable set per water-filling round.
        while remaining > _TIME_EPS_S:
            active = [t for t in self.runqueue if t.runnable_at_tick_start]
            if not active:
                break
            share = remaining / len(active)
            used_sum = 0.0
            any_blocked = False
            for task in active:
                used = task.run_for(share, throughput, sim)
                used_sum += used
                # After a block or finish this is the task's own class.
                af = task.current_work_class.activity_factor
                self.activity_weighted_s += used * af
                if task.state is not TaskState.RUNNABLE:
                    any_blocked = True
            self.busy_in_tick_s += used_sum
            remaining -= used_sum
            if not any_blocked:
                # Everyone consumed a full share; the tick is exhausted up
                # to float error.
                break
        self.busy_in_window_s += self.busy_in_tick_s

    def mean_activity_factor(self) -> float:
        """CPU-time-weighted activity factor of work run this tick."""
        if self.busy_in_tick_s <= 0:
            return 1.0
        return self.activity_weighted_s / self.busy_in_tick_s
