"""The simulation engine: ties cores, scheduler, governor, and tasks together.

Tick pipeline (1 ms per tick):

1. resolve channel signals and sleep expirations; place woken tasks on
   cores via the HMP wake-placement rule;
2. execute every core with queued work for the tick (processor sharing);
3. update per-task load tracking (frequency-normalized samples; sleeping
   tasks are not updated — paper Algorithm 1);
4. run the HMP migration and balancing pass;
5. advance the per-cluster governors;
6. record the tick into the trace (activity, frequencies, system power).

The engine stops at ``max_seconds``, when a task requests a stop (used
by latency-app driver scripts), or when every task has finished.

**Fast-forward.**  The engine skips spans whose every tick it can
replay without stepping, through one probe (``_span_horizon``) and one
replay (``_fast_forward``) that cover both of the paper's workload
shapes:

- an *idle* span — no core has a queued task, as between the bursts of
  an interactive app (the paper's central observation) — runs to the
  earliest sleeper wake-up, capped at ``max_ticks``;
- a *busy* span — a CPU-bound phase — needs every runqueue frozen (no
  sleeper due, no channel signal pending, no task able to exhaust its
  work before the horizon), each running task getting a constant
  processor-sharing slice per tick, and the scheduler certifying via
  :meth:`HMPScheduler.busy_tick_guard` that only load-threshold
  migrations could fire; the probe dry-runs the governors, walks every
  task's work through the replayed frequencies to find its exhaustion,
  and bounds every task's load trajectory against the reachable
  thresholds tick by tick (same throughput and EWMA arithmetic, so both
  bounds are exact, not approximate).

The replay runs the governors over the span
(:meth:`Governor.tick_span`), advances queued tasks' loads through
:meth:`LoadTracker.advance` and their work through
:meth:`Task.fastforward_steady`, and stages the span's trace rows into
the deferred power pipeline — all bit-exact with the reference loop (see
``docs/architecture.md`` for the eligibility invariants).  The fast
paths are pinned off with ``SimConfig(fastpath=False)`` or
``REPRO_ENGINE_FASTPATH=0``.

**One tick path.**  ``_step`` (a reference tick) and ``_fast_forward``
(a span) run one implementation of each phase that has a span form, the
reference tick as a one-tick span: :meth:`_begin` starts every core's
tick; throughput comes from :meth:`SimCore.throughput`; loads fold
:func:`repro.sched.load.load_sample` through ``LoadTracker.advance``
(the span probe dry-runs that fold with ``LoadTracker.first_crossing``);
:meth:`InteractiveGovernor.tick` is a one-tick ``tick_span(commit=True)``;
and :meth:`_record` builds every trace row.  With no thermal/GPU
feedback (nothing in the run reads the trace) it stages each row into
:class:`repro.platform.power.DeferredPowerPipeline` — a 1-tick row per
reference tick, one multi-tick row per constant-power span segment —
which is then the only writer of every trace column: it computes power
and writes all columns vectorized at each flush.  A span writes no
trace column, so it requires the pipeline: ``fastpath_enabled`` implies
``deferred_power_enabled``, and spans refuse while tick hooks (the one
other thing that keeps the pipeline off) are set.  Otherwise
``_record`` feeds the row to the scalar :meth:`Trace.record` with
per-tick power, the oracle, used by pinned-off, thermal, GPU and
tick-hook runs.  Execution keeps two forms, ``Task.run_for``
water-filling per tick and ``Task.fastforward_steady`` per span
segment: a reference tick can finish a directive mid-tick and run the
next one or hand its unused share to other tasks, which a span, cut one
decrement short of any exhaustion, never does.
"""

from __future__ import annotations

import heapq
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.events import (
    BusyFastForward,
    EventBus,
    FreqChanged,
    IdleFastForward,
    TaskBlocked,
    TaskFinished,
    TaskSpawned,
    TaskWoken,
    ThermalCap,
)
from repro.platform.chip import ChipSpec, CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.platform.gpu import GpuSpec
from repro.platform.power import DeferredPowerPipeline
from repro.platform.thermal import ThermalModel, ThermalParams
from repro.sim.gpu import GpuDevice
from repro.sched.governor import (
    ClusterFreqDomain,
    Governor,
    InteractiveGovernor,
    _accrued,
)
from repro.sched.hmp import HMPScheduler
from repro.sched.load import LoadTracker, load_sample
from repro.sched.params import SchedulerConfig, baseline_config
from repro.sim.core import SimCore
from repro.sim.rng import RngStream
from repro.sim.task import Channel, Task, TaskState
from repro.sim.trace import Trace
from repro.units import TICK_MS

#: Shortest span worth the fast-forward setup cost; shorter spans fall
#: through to the (equivalent) reference steps.
_MIN_FASTFORWARD_TICKS = 8

#: Shortest busy span worth the (heavier) busy probe: it dry-runs
#: governors and load trajectories, so it needs more ticks to amortize
#: than an idle span.
_MIN_BUSY_FASTFORWARD_TICKS = 16

#: Longest span one busy probe will certify.  The probe's dry runs are
#: O(span), so an uncapped horizon would make a probe that *fails* late
#: (load crossing near the end) disproportionately expensive; chunking
#: bounds any single probe while long steady phases still fast-forward
#: as a short sequence of giant spans.
_BUSY_FASTFORWARD_CHUNK_TICKS = 8192


def _exec_segments(
    change_list: list[tuple[int, int]], freq_khz: int, n: int
) -> list[tuple[int, int, int]]:
    """``(start, end, khz)`` execution segments of an ``n``-tick span.

    ``change_list`` holds a governor's ``(offset, khz)`` changes over the
    span, starting from ``freq_khz``.  A change recorded at offset ``o``
    takes effect on execution (and load sampling) from ``o + 1``.
    """
    segs = []
    seg_start = 0
    for offset, khz in change_list:
        cut = offset + 1
        if cut >= n:
            break
        if cut > seg_start:
            segs.append((seg_start, cut, freq_khz))
        seg_start = cut
        freq_khz = khz
    if seg_start < n:
        segs.append((seg_start, n, freq_khz))
    return segs


@dataclass
class SimConfig:
    """Everything that defines one simulation run (workloads aside)."""

    chip: ChipSpec = field(default_factory=exynos5422)
    core_config: Optional[CoreConfig] = None  # default: all cores enabled
    scheduler: SchedulerConfig = field(default_factory=baseline_config)
    governors: Optional[dict[CoreType, Governor]] = None  # default: interactive
    #: Alternative scheduler class/factory with the HMPScheduler
    #: interface (e.g. repro.sched.efficiency_sched.EfficiencyScheduler).
    scheduler_factory: Optional[Callable[..., HMPScheduler]] = None
    #: Thermal model parameters; None disables throttling (the paper's
    #: short interactive runs are unthrottled).
    thermal: Optional[ThermalParams] = None
    #: GPU model; None (default) omits the GPU, matching the paper's
    #: CPU-centric measurements.  When set, tasks may submit GPU jobs
    #: via ``sim.gpu`` and GPU power joins the system total.
    gpu: Optional[GpuSpec] = None
    max_seconds: float = 30.0
    seed: int = 0
    #: Allow the bit-exact fast paths: fast-forward spans (idle and
    #: busy) and deferred power.  False pins the reference
    #: tick-by-tick loop with per-tick power (as does
    #: ``REPRO_ENGINE_FASTPATH=0`` in the environment) — useful when
    #: debugging or validating traces.
    fastpath: bool = True

    def __post_init__(self) -> None:
        if self.core_config is None:
            self.core_config = self.chip.max_config()
        self.chip.validate_config(self.core_config)
        if self.max_seconds <= 0:
            raise ValueError(f"max_seconds must be positive, got {self.max_seconds}")


class Simulator:
    """One deterministic run of the asymmetric platform."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.rng = RngStream(config.seed)
        self.tick = 0
        self.tick_s = TICK_MS / 1000.0
        self.max_ticks = int(math.ceil(config.max_seconds / self.tick_s))
        self._stop_requested = False

        chip = config.chip
        cc = config.core_config
        self.cores: list[SimCore] = []
        for i in range(chip.little_cluster.num_cores):
            self.cores.append(
                SimCore(
                    core_id=i,
                    spec=chip.little_cluster.spec,
                    enabled=i < cc.little,
                    max_freq_khz=chip.little_cluster.opp_table.max_khz,
                )
            )
        offset = chip.little_cluster.num_cores
        for i in range(chip.big_cluster.num_cores):
            self.cores.append(
                SimCore(
                    core_id=offset + i,
                    spec=chip.big_cluster.spec,
                    enabled=i < cc.big,
                    max_freq_khz=chip.big_cluster.opp_table.max_khz,
                )
            )

        self.domains = {
            CoreType.LITTLE: ClusterFreqDomain(
                CoreType.LITTLE, chip.little_cluster.opp_table, self.cores
            ),
            CoreType.BIG: ClusterFreqDomain(
                CoreType.BIG, chip.big_cluster.opp_table, self.cores
            ),
        }
        if config.governors is not None:
            self.governors = dict(config.governors)
        else:
            self.governors = {
                CoreType.LITTLE: InteractiveGovernor(config.scheduler.governor),
                CoreType.BIG: InteractiveGovernor(config.scheduler.governor),
            }
        for core_type, governor in self.governors.items():
            governor.start(self.domains[core_type])
        self._enabled_cores = [c for c in self.cores if c.enabled]
        self._dom_little = self.domains[CoreType.LITTLE]
        self._dom_big = self.domains[CoreType.BIG]
        #: ``(governor, domain)`` pairs in governor order.
        self._governed = [(g, self.domains[ct]) for ct, g in self.governors.items()]

        factory = config.scheduler_factory or HMPScheduler
        self.hmp = factory(self.cores, config.scheduler.hmp)

        self.thermal: Optional[ThermalModel] = None
        if config.thermal is not None:
            self.thermal = ThermalModel(
                config.thermal, chip.big_cluster.opp_table.frequencies_khz
            )
        self.gpu: Optional[GpuDevice] = (
            GpuDevice(config.gpu) if config.gpu is not None else None
        )

        #: Observability event bus, or ``None`` (the default).  Every
        #: emission site in the engine sits behind one
        #: ``if self.obs is not None:`` test, so the disabled path does
        #: no event work at all; attach via :meth:`attach_observer`.
        self.obs: Optional[EventBus] = None

        self.tasks: list[Task] = []
        #: Min-heap of ``(wake_tick, seq, task)`` sleepers.  The ``seq``
        #: tiebreaker preserves the FIFO wake order of the former
        #: list-scan implementation for tasks due on the same tick.
        self._sleep_heap: list[tuple[int, int, Task]] = []
        self._sleep_seq = 0
        self._watched_channels: list[Channel] = []
        self._unfinished = 0
        self._tick_hooks: list[Callable[["Simulator"], None]] = []
        self._wakeups_this_tick = 0
        self._busy_cores_prev = 0

        # Hoisted per-tick constants.
        self._pm = chip.power_model
        self._deep_entry_ticks = (
            self._pm.params.deep_idle_entry_ms / (self.tick_s * 1000.0)
        )
        #: DRAM contention multiplier indexed by busy-core count.
        self._contention = [
            chip.memory_contention(n) for n in range(len(self.cores) + 1)
        ]
        self._cluster_powers = [
            self._pm.cluster_power_mw(ct, any(c.enabled for c in self.domains[ct].cores))
            for ct in (CoreType.LITTLE, CoreType.BIG)
        ]

        # Static eligibility of fast-forward and deferred power: no
        # per-tick side channel reads or feeds the simulated state.
        # Thermal state integrates every tick and the GPU has its own
        # per-tick governor/energy accounting, so either disables both.
        env = os.environ.get("REPRO_ENGINE_FASTPATH", "1").strip().lower()
        static_ok = (
            config.fastpath
            and env not in ("0", "false", "off", "no")
            and config.thermal is None
            and config.gpu is None
        )
        # Fast-forward also needs every per-tick channel to be provably
        # inert while nothing is runnable.
        self.fastpath_enabled = static_ok and getattr(
            self.hmp, "idle_tick_is_noop", False
        )
        # Busy spans additionally need a scheduler that can certify its
        # tick is load-threshold-driven on frozen runqueues
        # (busy_tick_guard; subclasses opt out with the attribute form
        # ``busy_tick_guard = None``) and governors that override
        # ``Governor.tick_span`` (the base replays idle domains only).
        self.busy_fastpath_enabled = (
            self.fastpath_enabled
            and getattr(self.hmp, "busy_tick_guard", None) is not None
            and all(
                type(g).tick_span is not Governor.tick_span
                for g in self.governors.values()
            )
        )
        #: Fast-forward statistics (idle + busy spans taken, ticks
        #: skipped over); the ``busy_*`` pair counts the busy subset.
        self.fastforward_spans = 0
        self.fastforward_ticks = 0
        self.busy_fastforward_spans = 0
        self.busy_fastforward_ticks = 0
        # A probe that found a near crossing or exhaustion is not
        # retried until the predicted tick has been stepped past.
        self._busy_probe_cooldown = 0

        # Deferred power: with no thermal/GPU feedback, nothing inside
        # the run reads the power columns, so per-tick power evaluation
        # can be batched into one vectorized post-pass.  Instantiated at
        # run() start (tick hooks may still be registered until then).
        self.deferred_power_enabled = static_ok
        self._deferred: Optional[DeferredPowerPipeline] = None

        self.trace = Trace(
            core_types=[c.core_type for c in self.cores],
            enabled=[c.enabled for c in self.cores],
            max_ticks=self.max_ticks,
        )

    # -- time ------------------------------------------------------------

    @property
    def now_s(self) -> float:
        return self.tick * self.tick_s

    def tick_for_time(self, time_s: float) -> int:
        """The first tick boundary at or after ``time_s``."""
        return int(math.ceil(time_s / self.tick_s - 1e-9))

    def request_stop(self) -> None:
        self._stop_requested = True

    def notify_input(self) -> None:
        """Signal a user-input event to input-boost-capable governors.

        Workload drivers call this (via TaskContext) at each user
        action; governors without boost support ignore it.
        """
        for governor, domain in self._governed:
            boost = getattr(governor, "notify_input", None)
            if boost is not None:
                boost(domain)

    def attach_observer(self, bus: EventBus) -> EventBus:
        """Install an event bus on the engine, scheduler, and domains.

        Unlike :meth:`add_tick_hook`, an observer does **not** disable
        fast-forward spans, idle or busy: events record decisions
        without feeding back into them, so traces stay bit-exact with
        the unobserved run (fast-forwarded governor decisions are
        re-emitted with their historical ticks).  Most callers want
        :meth:`repro.obs.Observation.attach`, which also wires a
        metrics collector.
        """
        self.obs = bus
        self.hmp.obs = bus
        for domain in self.domains.values():
            domain.obs = bus
        return bus

    def add_tick_hook(self, hook: Callable[["Simulator"], None]) -> None:
        """Register a callable invoked each tick after execution.

        Hooks run after cores execute and loads update, but before the
        HMP migration pass, so per-tick task accounting
        (``busy_in_tick_s``, ``tick_tasks``) is complete and placement
        still reflects where the work actually ran.  Used by observers
        such as :class:`repro.core.taskstats.TaskStatsCollector`.
        """
        self._tick_hooks.append(hook)

    # -- task management ---------------------------------------------------

    def spawn(self, task: Task, rng: Optional[RngStream] = None) -> Task:
        """Register a task and start its behaviour generator."""
        task.load = LoadTracker(
            halflife_ms=self.config.scheduler.hmp.history_halflife_ms,
            initial=task.initial_load,
        )
        # The RNG stream is keyed by the task's name and its spawn order
        # *within this simulation* — never by any process-global state —
        # so identical configurations replay identically regardless of
        # what else ran earlier in the process.
        stream_key = f"task/{task.name}/{len(self.tasks)}"
        self.tasks.append(task)
        self._unfinished += 1
        spawn_event = None
        if self.obs is not None:
            # Emitted before the generator starts so any block/finish it
            # triggers follows the spawn in the log; the placed core is
            # filled in below once known.
            spawn_event = TaskSpawned(task=task.name, tid=task.tid)
            self.obs.emit(spawn_event)
        task.start(self, rng or self.rng.split(stream_key))
        if task.state is TaskState.RUNNABLE:
            core = self.hmp.place_wakeup(task)
            core.enqueue(task)
            if spawn_event is not None:
                spawn_event.core = core.core_id
        return task

    def channel(self, name: str = "chan") -> Channel:
        return Channel(name)

    def on_task_blocked(self, task: Task) -> None:
        """Called by Task when it transitions to SLEEPING/WAITING."""
        task.blocked_at_tick = self.tick
        if self.obs is not None:
            self.obs.emit(TaskBlocked(
                task=task.name, tid=task.tid,
                state=task.state.value, core=task.core_id,
            ))
        if task.core_id is not None:
            self.cores[task.core_id].dequeue(task)
        if task.state is TaskState.SLEEPING:
            self._sleep_seq += 1
            heapq.heappush(self._sleep_heap, (task.wake_tick, self._sleep_seq, task))

    def on_task_finished(self, task: Task) -> None:
        if task.core_id is not None:
            self.cores[task.core_id].dequeue(task)
        self._unfinished -= 1
        if self.obs is not None:
            self.obs.emit(TaskFinished(
                task=task.name, tid=task.tid, total_busy_s=task.total_busy_s,
            ))

    def watch_channel(self, channel: Channel) -> None:
        if channel not in self._watched_channels:
            self._watched_channels.append(channel)

    def _wake(self, task: Task) -> None:
        """Wake a task whose blocking directive completed.

        The task's generator is advanced past the completed Sleep/Wait
        directive; it may immediately block again (chained sleeps), in
        which case no placement happens.  Wakes are counted for the
        trace's wakeup-rate statistics.
        """
        self._wakeups_this_tick += 1
        task.state = TaskState.RUNNABLE
        task.wake_tick = None
        # Age the load history over the blocked period (PELT semantics:
        # sleep adds no samples but still passes time).
        if task.blocked_at_tick is not None:
            task.load.decay(self.tick - task.blocked_at_tick)
            task.blocked_at_tick = None
        wake_event = None
        if self.obs is not None:
            # Before the advance, so a chained block/finish follows the
            # wake in the log; core filled in after placement.
            wake_event = TaskWoken(task=task.name, tid=task.tid)
            self.obs.emit(wake_event)
        task._advance(self)
        if task.state is TaskState.RUNNABLE:
            core = self.hmp.place_wakeup(task)
            core.enqueue(task)
            if wake_event is not None:
                wake_event.core = core.core_id

    def _process_wakeups(self) -> None:
        # Sleep expirations, in (wake_tick, sleep-order) order.  Every
        # due task slept to exactly this tick (earlier ticks drained
        # earlier), so the seq tiebreaker reproduces the old list scan's
        # FIFO order and traces are unchanged.  Chained sleeps pushed by
        # ``_wake`` always target a future tick, so the loop terminates.
        heap = self._sleep_heap
        while heap and heap[0][0] <= self.tick:
            _, _, task = heapq.heappop(heap)
            self._wake(task)
        # Channel signals (FIFO per channel).  A woken task may wait again
        # on a channel drained earlier in this loop, so the watch list is
        # rebuilt only once every channel has been served.
        if self._watched_channels:
            for chan in self._watched_channels:
                while chan.waiters and chan.permits >= chan.waiters[0][1]:
                    task, needed = chan.waiters.popleft()
                    chan.permits -= needed
                    self._wake(task)
            self._watched_channels = [c for c in self._watched_channels if c.waiters]

    # -- main loop ---------------------------------------------------------

    def run(self) -> Trace:
        """Run to completion and return the finalized trace."""
        if (
            self.deferred_power_enabled
            and not self._tick_hooks
            and self._deferred is None
        ):
            self._deferred = DeferredPowerPipeline(
                self._pm,
                self.trace,
                [c.core_type for c in self.cores],
                [c.enabled for c in self.cores],
                {ct: dom.opp_table for ct, dom in self.domains.items()},
            )
        while self.tick < self.max_ticks and not self._stop_requested:
            n, plan = self._span_horizon()
            if n:
                self._fast_forward(n, plan)
                continue
            self._step()
            if self._unfinished == 0:
                break
        if self._deferred is not None:
            self._deferred.flush()
        self.trace.finalize()
        return self.trace

    # -- fast-forward --------------------------------------------------------

    def _span_horizon(self) -> tuple[int, Optional[tuple]]:
        """Probe for a fast-forward span starting at this tick.

        Returns ``(n_ticks, plan)``, or ``(0, None)`` when no span is
        eligible.  ``plan`` is ``(core_plans, busy_by_core, contention)``:
        per busy core a ``(core, n_queued, share)`` entry and its per-tick
        busy seconds, plus the span's DRAM contention factor.  A plan with
        no busy cores is an idle span.  Any span needs the static
        ``fastpath_enabled``, no observer tick hook, an unfinished task,
        and no sleeper due or channel wake pending before the horizon:
        the earliest sleeper wake-up, capped at the run's end.  No new
        work can appear inside it, because only running tasks post
        signals or spawn, and a busy span's running tasks are all
        mid-``Work``.  An idle span (no queued task anywhere) then needs
        ``_MIN_FASTFORWARD_TICKS`` ticks.  A busy span needs
        ``busy_fastpath_enabled``, ``_MIN_BUSY_FASTFORWARD_TICKS`` ticks,
        no probe cooldown, and:

        - only enabled cores busy, and every queued task's work able to
          outlast the busy minimum at its cluster's minimum OPP, where
          work lasts longest (a cheap pre-screen; that bound, capped at
          ``_BUSY_FASTFORWARD_CHUNK_TICKS``, also caps the dry run);
        - a DRAM contention factor constant across the span (including
          the first tick, which still sees the pre-span busy core count);
        - the scheduler certifying its tick reduces to load-threshold
          checks on the frozen runqueues (:meth:`busy_tick_guard`);
        - every governor able to replay the span (``tick_span`` dry run);
        - no queued task exhausting its work: each task's remaining
          units are walked through the replayed frequency segments at
          each segment's own throughput, and the horizon is cut one full
          decrement short of the exhaustion (a cut below the busy
          minimum sets the probe cooldown to it);
        - no task's load trajectory reaching a reachable migration
          threshold before the horizon (:meth:`_busy_span_load_safe`,
          exact EWMA arithmetic over the same segments).

        The probe runs on every reference tick, so cheap refusals come
        first.
        """
        if not self.fastpath_enabled or self._tick_hooks or self._unfinished == 0:
            return 0, None
        tick = self.tick
        horizon = self.max_ticks - tick
        heap = self._sleep_heap
        if heap and heap[0][0] - tick < horizon:
            horizon = heap[0][0] - tick
        if horizon < _MIN_FASTFORWARD_TICKS:
            return 0, None
        busy_cores = []
        for core in self.cores:
            if not core.runqueue:
                continue
            if not core.enabled:
                return 0, None
            if not busy_cores and (
                horizon < _MIN_BUSY_FASTFORWARD_TICKS
                or tick < self._busy_probe_cooldown
                or not self.busy_fastpath_enabled
            ):
                return 0, None
            busy_cores.append(core)
        for chan in self._watched_channels:
            if chan.waiters and chan.permits >= chan.waiters[0][1]:
                return 0, None
        if not busy_cores:
            return horizon, ([], {}, None)
        horizon = min(horizon, _BUSY_FASTFORWARD_CHUNK_TICKS)
        contention = self._contention[len(busy_cores)]
        if contention != self._contention[self._busy_cores_prev]:
            return 0, None
        guard = self.hmp.busy_tick_guard()
        if guard is None:
            return 0, None
        tick_s = self.tick_s
        core_plans = []
        for core in busy_cores:
            n_rq = len(core.runqueue)
            share = tick_s / n_rq
            min_tput = core.throughput(
                self.domains[core.core_type].opp_table.min_khz, contention
            )
            for task in core.runqueue:
                # Throughput is monotone in frequency, so the min-OPP
                # rate bounds how long the work can last at any
                # frequency the governor might pick inside the span.
                dec_min = share * min_tput[task.current_work_class]
                if dec_min <= 0.0:
                    return 0, None
                horizon = min(horizon, int(task.remaining_units / dec_min) - 1)
            core_plans.append((core, n_rq, share))
        if horizon < _MIN_BUSY_FASTFORWARD_TICKS:
            return 0, None
        # Each busy core accrues the same busy seconds every tick: the
        # water-filling fold of one share per queued task.
        busy_by_core = {
            core.core_id: _accrued(0.0, share, n_rq)
            for core, n_rq, share in core_plans
        }
        changes = {CoreType.LITTLE: [], CoreType.BIG: []}
        for governor, domain in self._governed:
            span_changes = governor.tick_span(
                domain, tick, horizon, tick_s, busy_by_core, commit=False
            )
            if span_changes is None:
                return 0, None
            changes[domain.core_type] = span_changes
        segments = {
            core_type: _exec_segments(
                change_list, self.domains[core_type].freq_khz, horizon
            )
            for core_type, change_list in changes.items()
        }
        # Walk each task's work through the replayed frequencies and cut
        # the horizon one full decrement short of its exhaustion.
        for core, n_rq, share in core_plans:
            segs = segments[core.core_type]
            for task in core.runqueue:
                rem = task.remaining_units
                work_class = task.current_work_class
                for seg_start, seg_end, khz in segs:
                    if seg_start >= horizon:
                        break
                    dec = share * core.throughput(khz, contention)[work_class]
                    fit = int(rem / dec) - 1
                    if fit < seg_end - seg_start:
                        horizon = min(horizon, seg_start + fit)
                        break
                    rem -= (seg_end - seg_start) * dec
        if horizon < _MIN_BUSY_FASTFORWARD_TICKS:
            # A burst about to end: step normally up to its predicted
            # exhaustion before reprobing.
            self._busy_probe_cooldown = tick + max(1, horizon)
            return 0, None
        safe = self._busy_span_load_safe(horizon, segments, core_plans, guard)
        if safe < horizon:
            if safe < _MIN_BUSY_FASTFORWARD_TICKS:
                # Too close to a migration to amortize the replay; step
                # normally up to the predicted crossing before reprobing.
                self._busy_probe_cooldown = tick + max(1, safe)
                return 0, None
            horizon = safe
        return horizon, (core_plans, busy_by_core, contention)

    def _emit_span_freq_changes(
        self,
        changes: dict[CoreType, list[tuple[int, int]]],
        start: int,
        freq0: dict[CoreType, int],
    ) -> None:
        """Re-emit a replayed span's frequency changes in reference order.

        The per-tick loop evaluates governors in ``self.governors`` order
        within each tick, so changes from different clusters interleave by
        tick in the reference event stream.  Merging the per-domain chains
        on (tick offset, governor order) reproduces that stream exactly.
        """
        order = {ct: i for i, ct in enumerate(self.governors)}
        merged = []
        for core_type, change_list in changes.items():
            prev = freq0[core_type]
            for offset, khz in change_list:
                merged.append((offset, order[core_type], core_type, prev, khz))
                prev = khz
        merged.sort(key=lambda item: (item[0], item[1]))
        for offset, _rank, core_type, prev, khz in merged:
            self.obs.emit(FreqChanged(
                cluster=core_type.value, old_khz=prev, new_khz=khz,
                tick=start + offset,
            ))

    def _busy_span_load_safe(
        self,
        n: int,
        segments: dict[CoreType, list[tuple[int, int, int]]],
        core_plans: list,
        guard,
    ) -> int:
        """Largest span prefix in which no reachable load threshold fires.

        Dry-runs every queued task's load fold
        (:meth:`LoadTracker.first_crossing`) with the per-tick samples of
        the replay (they change only at the governors' replayed frequency
        ``segments``, which may run past ``n``), against the threshold
        the HMP guard says is reachable for the task's cluster.  A
        crossing predicted at offset ``j`` means the migration pass at
        span tick ``j`` would move the task, so only ``j`` ticks are safe
        to fast-forward.
        """
        safe = n
        tick_s = self.tick_s
        for core, n_rq, share in core_plans:
            rising = core.core_type is CoreType.LITTLE
            if rising:
                if not guard.up_possible:
                    continue
                threshold = guard.up_threshold
            else:
                if not guard.down_possible:
                    continue
                threshold = guard.down_threshold
            max_khz = core.max_freq_khz
            for task in core.runqueue:
                load = task.load
                v = load.value
                for seg_start, seg_end, khz in segments[core.core_type]:
                    if seg_start >= safe:
                        break
                    ticks = min(seg_end, safe) - seg_start
                    j, v = load.first_crossing(
                        load_sample(share, n_rq, tick_s, khz, max_khz),
                        ticks, threshold, rising, v,
                    )
                    if j < ticks:
                        safe = seg_start + j
                        break
                if safe == 0:
                    return 0
        return safe

    def _fast_forward(self, n: int, plan: tuple) -> None:
        """Advance the ``n`` ticks of a probed span in one step, bit-exactly.

        The probe proved the span frozen: each busy core's queued tasks
        each consume one constant processor-sharing slice per tick (an
        idle span has none), the scheduler pass cannot move anything,
        and the governors' decisions depend only on the (constant)
        per-tick window accumulation.  The span runs the reference
        tick's phases: it begins the tick on every core (:meth:`_begin`);
        governors commit their span replay (``tick_span(commit=True)``;
        domains are independent, so per-domain batching matches the
        reference interleaving); task loads advance through
        :meth:`LoadTracker.advance` and work through
        :meth:`Task.fastforward_steady` per frequency segment; and
        :meth:`_record` records each piecewise-constant trace segment as
        one multi-tick row.
        """
        core_plans, busy_by_core, contention = plan
        start = self.tick
        tick_s = self.tick_s
        freq_little = self._dom_little.freq_khz
        freq_big = self._dom_big.freq_khz
        self._begin()

        changes = {CoreType.LITTLE: [], CoreType.BIG: []}
        obs = self.obs
        if obs is not None:
            span_event = BusyFastForward if core_plans else IdleFastForward
            obs.emit(span_event(n_ticks=n, tick=start))
        # The replay goes through the ordinary set_freq path, whose
        # emissions would all carry the span's start tick; mute it and
        # re-emit each change with its exact historical tick.
        with obs.muted() if obs is not None else nullcontext():
            for governor, domain in self._governed:
                changes[domain.core_type] = governor.tick_span(
                    domain, start, n, tick_s, busy_by_core, commit=True
                )
        if obs is not None:
            self._emit_span_freq_changes(
                changes, start,
                {CoreType.LITTLE: freq_little, CoreType.BIG: freq_big},
            )
        little_changes = changes[CoreType.LITTLE]
        big_changes = changes[CoreType.BIG]

        # Replay busy cores' loads, work, and per-tick accounting.
        if core_plans:
            exec_segments = {
                CoreType.LITTLE: _exec_segments(little_changes, freq_little, n),
                CoreType.BIG: _exec_segments(big_changes, freq_big, n),
            }
        for core, n_rq, share in core_plans:
            segs = exec_segments[core.core_type]
            max_khz = core.max_freq_khz
            aw = 0.0
            for task in core.runqueue:
                for seg_start, seg_end, khz in segs:
                    seg_len = seg_end - seg_start
                    task.load.advance(
                        load_sample(share, n_rq, tick_s, khz, max_khz), seg_len
                    )
                    task.fastforward_steady(
                        share,
                        core.throughput(khz, contention)[task.current_work_class],
                        seg_len,
                    )
                aw += share * task.current_work_class.activity_factor
            core.busy_in_tick_s = busy_by_core[core.core_id]
            core.activity_weighted_s = aw

        # The trace is piecewise-constant between span ends, governor
        # changes (recorded at their offset) and idle cores' deep-idle
        # entries; each piece is recorded as one multi-tick row.
        assert self._deferred is not None, "spans need the deferred power pipeline"
        cuts = {0, n}
        for change_list in changes.values():
            for offset, _ in change_list:
                cuts.add(offset)
        deep_min = math.ceil(self._deep_entry_ticks)  # smallest deep idle-tick count
        for core in self._enabled_cores:
            if core.core_id not in busy_by_core:
                # The offset of the core's first deep tick (see _record).
                crossing = deep_min - core.idle_ticks - 1
                if 0 < crossing < n:
                    cuts.add(crossing)
        i_little = i_big = 0
        ordered_cuts = sorted(cuts)
        for a, b in zip(ordered_cuts, ordered_cuts[1:]):
            while i_little < len(little_changes) and little_changes[i_little][0] <= a:
                freq_little = little_changes[i_little][1]
                i_little += 1
            while i_big < len(big_changes) and big_changes[i_big][0] <= a:
                freq_big = big_changes[i_big][1]
                i_big += 1
            self._record(b - a, freq_little, freq_big, 0)

        self._wakeups_this_tick = 0
        self.tick = start + n
        self.fastforward_spans += 1
        self.fastforward_ticks += n
        if core_plans:
            self.busy_fastforward_spans += 1
            self.busy_fastforward_ticks += n

    def _step(self) -> None:
        self._wakeups_this_tick = 0
        self._process_wakeups()

        tick_s = self.tick_s
        busy = self._begin()
        for core in busy:
            core.execute_tick(tick_s, self)

        self._update_loads(busy)
        for hook in self._tick_hooks:
            hook(self)
        self.hmp.tick(self.cores)
        for governor, domain in self._governed:
            governor.tick(domain, self.tick, tick_s)

        self._record(
            1, self._dom_little.freq_khz, self._dom_big.freq_khz,
            self._wakeups_this_tick,
        )
        self.tick += 1

    def _begin(self) -> list[SimCore]:
        """Begin the tick on every core with queued work and return them,
        so every begin runs before any execute.

        Idle cores just drop the previous tick's accounting.  A core idle
        here cannot gain work it would run this tick: the only mid-tick
        enqueue is a spawn, and a spawned task is not
        ``runnable_at_tick_start``.  DRAM contention comes from the
        previous tick's busy core count (one-tick lag keeps the
        computation causal).
        """
        contention = self._contention[self._busy_cores_prev]
        busy = []
        for core in self.cores:
            if core.runqueue:
                core.begin_tick()
                core.memory_contention = contention
                busy.append(core)
            elif core.tick_tasks:
                core.clear_tick()
        return busy

    def _update_loads(self, cores: list[SimCore]) -> None:
        """Frequency-normalized per-task load samples (Algorithm 1 step 1).

        ``cores`` are the cores that began this tick; every other core
        has no ``tick_tasks``.
        """
        tick_s = self.tick_s
        for core in cores:
            if not core.enabled:
                continue
            freq_khz = core.freq_khz
            max_khz = core.max_freq_khz
            n = max(1, core.nr_start)
            for task in core.tick_tasks:
                if task.state is TaskState.FINISHED:
                    continue
                sample = load_sample(task.busy_in_tick_s, n, tick_s, freq_khz, max_khz)
                task.load.advance(sample, 1)

    def _record(self, ticks: int, little_khz: int, big_khz: int, wakeups: int) -> None:
        """Record the next ``ticks`` trace rows, all equal: the record
        phase of a reference tick (one row) and of a constant span segment.

        Busy fractions cover all cores, activity factors and deep-idle
        flags enabled cores; a row starts all-idle (0.0, 1.0) and busy
        cores overwrite their entries.  cpuidle: WFI at once, deep
        power-down once idle past the threshold at the row's first tick
        (spans cut rows at deep-idle entries).  Advances ``idle_ticks``
        and sets ``_busy_cores_prev``.  The row is staged into the
        deferred power pipeline, or else recorded by the scalar oracle:
        one reference tick with per-tick power, at the domains'
        frequencies after any thermal cap.
        """
        deep_entry_ticks = self._deep_entry_ticks
        tick_s = self.tick_s
        enabled = self._enabled_cores
        busy = [0.0] * len(self.cores)
        afs = [1.0] * len(enabled)
        deeps = []
        n_busy = 0
        for k, core in enumerate(enabled):
            busy_s = core.busy_in_tick_s
            if busy_s <= 0.0:
                idle = core.idle_ticks + 1
                core.idle_ticks += ticks
            else:
                busy[core.core_id] = min(1.0, busy_s / tick_s)
                afs[k] = core.activity_weighted_s / busy_s
                idle = core.idle_ticks = 0
                n_busy += 1
            deeps.append(idle >= deep_entry_ticks)
        self._busy_cores_prev = n_busy
        dp = self._deferred
        if dp is not None:
            # Stage a pipeline row, which writes the trace rows at its
            # flush; the scalar path below is its oracle.
            dp.stage(busy, afs, deeps, little_khz, big_khz, wakeups, ticks)
            return
        dom_little = self._dom_little
        dom_big = self._dom_big
        pm = self._pm
        # Cluster voltage is shared; evaluate it once per tick per domain
        # instead of once per core.
        volt_little = dom_little.voltage_v()
        volt_big = dom_big.voltage_v()
        core_powers = []
        little_cpu_mw = big_cpu_mw = 0.0
        for core, af, deep in zip(enabled, afs, deeps):
            is_little = core.core_type is CoreType.LITTLE
            core_mw = pm.core_power_mw(
                core.core_type,
                core.freq_khz,
                volt_little if is_little else volt_big,
                busy[core.core_id],
                af,
                deep_idle=deep,
            )
            core_powers.append(core_mw)
            if is_little:
                little_cpu_mw += core_mw
            else:
                big_cpu_mw += core_mw
        power = pm.system_power_mw(core_powers, self._cluster_powers)
        if self.gpu is not None:
            power += self.gpu.tick(tick_s)
        if self.thermal is not None:
            cap = self.thermal.step(power, tick_s)
            if self.obs is not None and cap != dom_big.cap_khz:
                self.obs.emit(ThermalCap(
                    cluster=CoreType.BIG.value,
                    cap_khz=cap,
                    old_cap_khz=dom_big.cap_khz,
                ))
            dom_big.set_cap(cap)
        self.trace.record(
            busy,
            dom_little.freq_khz,
            dom_big.freq_khz,
            power,
            wakeups=wakeups,
            little_cpu_mw=little_cpu_mw,
            big_cpu_mw=big_cpu_mw,
        )
