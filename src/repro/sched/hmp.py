"""The HMP (Heterogeneous Multi-Processing) scheduler — paper Algorithm 1.

Every scheduling tick:

1. each task's tracked load is updated by time-weighted adjustment
   (done by the engine via :class:`repro.sched.load.LoadTracker`, with
   the per-tick sample normalized by current frequency);
2. tasks on little cores whose load exceeds the **up-threshold** migrate
   to a big core; tasks on big cores whose load fell below the
   **down-threshold** migrate to a little core;
3. conventional load balancing runs within each core type.

Wake placement follows the same load rule: a waking task whose tracked
load exceeds the up-threshold is placed on the least-loaded big core,
otherwise on the least-loaded little core (sleep does not decay load,
per the paper, so a bursty task returns to a big core directly).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.obs.events import EventBus, TaskMigrated
from repro.platform.coretypes import CoreType
from repro.sched.balance import balance_cluster, counts_balanced, least_loaded
from repro.sched.params import HMPParams
from repro.sim.core import SimCore
from repro.sim.task import Task, TaskState


class BusyTickGuard(NamedTuple):
    """What could still trigger a migration during a busy steady span.

    Produced by :meth:`HMPScheduler.busy_tick_guard` for the engine's
    busy fast-forward.  Runqueue *counts* are frozen for the span (no
    wakeups, sleeps, or exits by construction), so the only remaining
    migration sources are the load thresholds; this names which of them
    are structurally reachable so the engine can bound each task's load
    trajectory against the right one.
    """

    #: A little->big migration can fire if some little task's load rises
    #: above ``up_threshold`` (requires an idle big core to exist).
    up_possible: bool
    up_threshold: float
    #: A big->little migration can fire if some big task's load drops
    #: below ``down_threshold`` (requires little cores to exist).
    down_possible: bool
    down_threshold: float


class HMPScheduler:
    """Migration scheduler over one little and one big core group."""

    #: True when :meth:`tick` is observably a no-op while every runqueue
    #: is empty (no idle counters, no time-based switching).  The engine's
    #: idle fast-forward may skip scheduler ticks only when this holds;
    #: schedulers that evolve state across idle ticks must set it False.
    idle_tick_is_noop = True

    #: Observability bus (installed by ``Simulator.attach_observer``).
    #: A class attribute so subclasses and existing pickled/constructed
    #: schedulers default to "not observed" without an __init__ change.
    obs: Optional[EventBus] = None

    def __init__(self, cores: list[SimCore], params: HMPParams):
        self.params = params
        self._by_id = {c.core_id: c for c in cores}
        self.little_cores = [
            c for c in cores if c.core_type is CoreType.LITTLE and c.enabled
        ]
        self.big_cores = [c for c in cores if c.core_type is CoreType.BIG and c.enabled]
        if not self.little_cores and not self.big_cores:
            raise ValueError("HMP requires at least one enabled core")

    def cores_for(self, core_type: CoreType) -> list[SimCore]:
        return self.little_cores if core_type is CoreType.LITTLE else self.big_cores

    # -- wake placement ----------------------------------------------------

    def place_wakeup(self, task: Task) -> SimCore:
        """Choose a core for a newly created or just-woken task.

        Placement keeps the migration hysteresis: a task waking from a
        short sleep stays in its previous cluster unless its tracked
        load crossed the relevant threshold — a big-resident task only
        drops to little below the *down*-threshold, and a little-
        resident (or new) task only climbs above the *up*-threshold.
        Without this, every micro-sleep would reset big-core residency.

        Within the chosen cluster the task's previous core is preferred
        when idle (wake affinity, as in ``select_idle_sibling``); that
        per-thread core stability is what the TLP sampling observes as
        concurrently active cores.
        """
        group = self._wakeup_group(task)
        prev = self._by_id.get(task.last_core_id)
        if prev is not None and prev.enabled and prev in group and prev.nr_running() == 0:
            return prev
        return least_loaded(group)

    def _wakeup_group(self, task: Task) -> list[SimCore]:
        if not self.little_cores:
            return self.big_cores
        if not self.big_cores:
            return self.little_cores
        prev = self._by_id.get(task.last_core_id)
        was_big = prev is not None and prev.core_type is CoreType.BIG and prev.enabled
        load = task.load.value
        if was_big:
            return self.little_cores if load < self.params.down_threshold else self.big_cores
        if load > self.params.up_threshold and least_loaded(self.big_cores).nr_running() == 0:
            # Go big only when a big core is actually free: stacking
            # several heavy tasks on one big core is slower than
            # spreading them over little cores (big-cluster overload
            # guard, as in the Linaro HMP patches).
            return self.big_cores
        return self.little_cores

    # -- periodic migration pass (Algorithm 1) -----------------------------

    def _migrate(self, task: Task, src: SimCore, dst: SimCore, reason: str) -> None:
        """Move ``task`` between clusters: dequeue, enqueue, account, report."""
        src.dequeue(task)
        dst.enqueue(task)
        task.migrations += 1
        if self.obs is not None:
            self.obs.emit(TaskMigrated(
                task=task.name, tid=task.tid,
                src_core=src.core_id, dst_core=dst.core_id,
                reason=reason, load=task.load.value,
            ))

    def tick(self, cores: list[SimCore]) -> int:
        """Run one migration + balancing pass; returns migrations done."""
        migrations = 0
        crowded = False
        for core in cores:
            if not core.enabled or not core.runqueue:
                continue
            crowded = crowded or len(core.runqueue) >= 2
            # Snapshot: migration mutates runqueues.
            for task in list(core.runqueue):
                if task.state is not TaskState.RUNNABLE:
                    continue
                target = self._migration_target(core, task)
                if target is not None:
                    reason = "up" if core.core_type is CoreType.LITTLE else "down"
                    self._migrate(task, core, target, reason)
                    migrations += 1
        # Offload and balancing both need a core with two or more tasks,
        # which only a crowded runqueue or a migration can leave behind.
        if not crowded and not migrations:
            return 0
        little, big = self._runqueue_counts()
        if _offload_pending(little, big):
            migrations += self._offload_overloaded_big()
            little, big = self._runqueue_counts()
        if not counts_balanced(little):
            balance_cluster(self.little_cores, obs=self.obs)
        if not counts_balanced(big):
            balance_cluster(self.big_cores, obs=self.obs)
        return migrations

    def _runqueue_counts(self) -> tuple[list[int], list[int]]:
        """Runnable counts of the little and the big cores."""
        return (
            [len(c.runqueue) for c in self.little_cores],
            [len(c.runqueue) for c in self.big_cores],
        )

    def busy_tick_guard(self) -> Optional[BusyTickGuard]:
        """Certify that :meth:`tick` is load-threshold-driven for a busy
        steady span, or return ``None`` when a count-driven pass (offload
        or intra-cluster balancing) would fire on the current runqueues.

        The engine's busy fast-forward calls this once per candidate
        span.  Runqueue counts cannot change inside the span, so a single
        structural check covers every tick; what *can* change is tracked
        load, and the returned guard tells the engine which thresholds
        remain reachable.  Subclasses whose tick is not reducible to
        these rules (ranked placement, parallelism feedback, time-based
        cluster switching) opt out by overriding this with ``None`` — the
        class attribute form ``busy_tick_guard = None`` works too, which
        is also what the engine's ``getattr`` eligibility probe checks.
        """
        little, big = self._runqueue_counts()
        if not counts_balanced(little) or not counts_balanced(big):
            return None
        if _offload_pending(little, big):
            return None
        return BusyTickGuard(
            up_possible=0 in big,
            up_threshold=self.params.up_threshold,
            down_possible=bool(self.little_cores),
            down_threshold=self.params.down_threshold,
        )

    def _offload_overloaded_big(self) -> int:
        """Move excess big-core tasks down to idle little cores.

        A big core timesharing several runnable tasks serves each of
        them slower than a dedicated little core would; the Linaro HMP
        offload path resolves this by pushing the lightest extra task
        down whenever a little core sits idle.  Called when
        :func:`_offload_pending` holds, so little cores exist.
        """
        moves = 0
        for big in self.big_cores:
            while big.nr_running() >= 2:
                idle_little = least_loaded(self.little_cores)
                if idle_little.nr_running() > 0:
                    return moves
                task = min(big.runqueue, key=lambda t: (t.load.value, t.tid))
                self._migrate(task, big, idle_little, "offload")
                moves += 1
        return moves

    def _migration_target(self, core: SimCore, task: Task) -> Optional[SimCore]:
        load = task.load.value
        if core.core_type is CoreType.LITTLE:
            if self.big_cores and load > self.params.up_threshold:
                target = least_loaded(self.big_cores)
                # Overload guard: never stack a second heavy task onto a
                # busy big core — it would run slower than where it is.
                if target.nr_running() == 0:
                    return target
            return None
        if self.little_cores and load < self.params.down_threshold:
            return least_loaded(self.little_cores)
        return None


def _offload_pending(little: list[int], big: list[int]) -> bool:
    """True when :meth:`HMPScheduler._offload_overloaded_big` would move a
    task, given the little and big runnable counts: a little core is
    idle and a big core timeshares."""
    return 0 in little and max(big, default=0) >= 2
