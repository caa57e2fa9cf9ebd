"""Generic machinery for building multi-threaded application models.

An :class:`App` owns a set of task blueprints and, after a run, the logs
needed to compute its performance metric (action latencies or frame
completions).  Concrete apps are assembled from reusable thread shapes:

- **driver scripts** — a main/UI thread executing a scripted sequence of
  user actions: main-thread bursts, fan-out to worker threads, I/O
  waits, then user think time (latency-oriented apps);
- **frame pipelines** — a 60 Hz logic thread feeding a render thread,
  with the frame completion logged for FPS accounting (games);
- **periodic threads** — audio mixers, compositors, decoders: fixed
  period, optional duty probability (cycles may be skipped, modelling
  batching/buffering), optional phase offset;
- **background threads** — sparse, randomized service activity.

All durations of CPU work are expressed in *work units* (seconds of a
little core at 1.3 GHz); wall-clock durations depend on core type and
DVFS at run time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.platform.perfmodel import WorkClass
from repro.sim.engine import Simulator
from repro.sim.task import Channel, Sleep, SleepUntil, Task, TaskContext, WaitSignal, Work
from repro.units import VSYNC_HZ, WARMUP_S


class Metric(enum.Enum):
    """Performance metric type, per paper Table II."""

    LATENCY = "latency"
    FPS = "fps"


# ---------------------------------------------------------------------------
# Thread blueprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicSpec:
    """A steady periodic thread (audio mixer, compositor, sensor poll).

    Attributes:
        name: thread name.
        period_ms: activation period.
        units_mean: mean CPU work per activation (work units).
        units_sigma: lognormal shape of the per-activation work.
        work_class: microarchitectural profile of the work.
        duty_prob: probability that a given period does any work at all
            (models batching/buffering that lets whole periods go idle).
        phase_ms: initial offset before the first activation.
    """

    name: str
    period_ms: float
    units_mean: float
    units_sigma: float = 0.3
    work_class: Optional[WorkClass] = None
    duty_prob: float = 1.0
    phase_ms: float = 0.0


@dataclass(frozen=True)
class BackgroundSpec:
    """Sparse service activity (binder threads, GC, sensors).

    Sleeps an exponentially distributed interval, then does a small burst.
    """

    name: str
    mean_interval_ms: float
    units_mean: float
    units_sigma: float = 0.5
    work_class: Optional[WorkClass] = None


def fragmented_work(ctx: "TaskContext", units: float, stall_prob: float = 0.35):
    """Yield ``units`` of work split into small chunks with micro-stalls.

    Real application bursts are not monolithic CPU spins: rendering and
    parsing block briefly on page faults, storage, IPC, and locks every
    few milliseconds.  Fragmenting bursts keeps 10 ms windows from
    reading as fully saturated (which would distort the paper's Table V
    efficiency decomposition) while leaving the duty cycle high enough
    for HMP load tracking to behave identically.
    """
    remaining = units
    while remaining > 1e-9:
        chunk = min(remaining, ctx.rng.uniform(0.004, 0.010))
        yield Work(chunk)
        remaining -= chunk
        if remaining > 1e-9 and ctx.rng.random() < stall_prob:
            yield Sleep(ctx.rng.uniform(0.001, 0.003))


@dataclass(frozen=True)
class ActionSpec:
    """One scripted user action for a latency-oriented app.

    An action consists of ``rounds`` dispatch rounds.  In each round the
    main thread computes ``main_units``, wakes every worker (each worker
    computes its own lognormal burst), waits ``io_ms`` of I/O, and then
    joins the workers.  After the action completes, the user "thinks" for
    ``think_ms`` before the next action.
    """

    name: str
    main_units: float
    worker_units: float
    io_ms: float = 0.0
    rounds: int = 1
    think_ms: float = 500.0


@dataclass(frozen=True)
class FramePipelineSpec:
    """A double-buffered 60 Hz game/render pipeline.

    The logic thread computes ``logic_units`` per frame and hands the
    frame to the render thread (``render_units``); with two frames in
    flight the stages overlap on different cores, as on the real
    platform.  A frame completes when rendering finishes; FPS follows
    from completion timestamps.

    ``heavy_factor``/``heavy_prob``/``phase_mean_s`` model scene phases:
    the game alternates between calm and heavy scenes (fights, many
    objects), multiplying the per-frame work.  Heavy phases are what
    push a game's render thread over the HMP up-threshold, producing the
    paper's bi-modal big-core usage for demanding games.
    """

    logic_units: float
    render_units: float
    units_sigma: float = 0.25
    work_class: Optional[WorkClass] = None
    heavy_factor: float = 1.0
    heavy_prob: float = 0.0
    phase_mean_s: float = 2.5
    #: Target frame rate.  Games run at the 60 Hz vsync; video playback
    #: paces at the content rate (typically 30 fps), leaving idle gaps
    #: between frame deliveries.
    fps: float = float(VSYNC_HZ)
    #: Per-frame fan-out helpers (binder transactions, compositor acks,
    #: buffer-queue callbacks): each is woken once per frame and does a
    #: small amount of work concurrently with the logic/render stages.
    helpers: int = 0
    helper_units: float = 0.0008
    #: Probability per frame of a pipeline stall (asset load, GC pause):
    #: the logic thread goes quiet for ~``stall_ms_mean``, producing the
    #: short fully-idle gaps games show in the paper's idle column.
    stall_prob: float = 0.0
    stall_ms_mean: float = 60.0
    #: GPU work per frame (GPU work units; see repro.platform.gpu).
    #: Requires a simulation configured with a GPU (``SimConfig.gpu``);
    #: the render thread submits the job and the frame completes when
    #: the GPU finishes — making the pipeline CPU+GPU bound.
    gpu_units: float = 0.0


# ---------------------------------------------------------------------------
# The App container
# ---------------------------------------------------------------------------


@dataclass
class AppLogs:
    """Raw observations collected while an app runs."""

    # (action name, start_s, end_s)
    actions: list[tuple[str, float, float]] = field(default_factory=list)
    # frame completion timestamps (seconds)
    frames: list[float] = field(default_factory=list)


class App:
    """A named, multi-threaded application model.

    Subclasses implement :meth:`build` to spawn their tasks into a
    simulator; afterwards the logs expose the paper's metrics via
    :meth:`latency_s`, :meth:`avg_fps`, and :meth:`min_fps`.
    """

    def __init__(
        self,
        name: str,
        metric: Metric,
        default_work_class: WorkClass,
        ambient_ui_duty: float = 0.5,
        ambient_bg_interval_ms: float = 80.0,
    ):
        self.name = name
        self.metric = metric
        self.default_work_class = default_work_class
        self.ambient_ui_duty = ambient_ui_duty
        self.ambient_bg_interval_ms = ambient_bg_interval_ms
        self.logs = AppLogs()
        self._installed = False

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, metric={self.metric.value})"

    # -- installation -----------------------------------------------------

    def install(self, sim: Simulator) -> None:
        """Create and spawn this app's tasks into ``sim`` (once).

        Besides the app's own threads, the ambient Android system
        activity is installed: the display compositor (SurfaceFlinger,
        60 Hz, active only when the screen content changes — modeled by
        ``ambient_ui_duty``) and sparse system-service work.  The real
        device is never fully quiet while an app is in the foreground,
        which is why the paper's idle percentages are low.
        """
        if self._installed:
            raise RuntimeError(f"app {self.name} already installed")
        self._installed = True
        self.build(sim)
        self._add_ambient(sim)

    def _add_ambient(self, sim: Simulator) -> None:
        if self.ambient_ui_duty > 0:
            # A screen update involves two threads: the app's UI/render
            # thread produces the frame and SurfaceFlinger composites it.
            # They are chained (UI posts the buffer, SF composites), so
            # ambient display activity shows up as 2 concurrently active
            # cores in the TLP sampling — as on the real device.
            sf_go = sim.channel(f"{self.name}/sf-go")

            def surfaceflinger(ctx: TaskContext):
                while True:
                    yield WaitSignal(sf_go)
                    yield Work(ctx.rng.lognormal(0.0012, 0.25))

            sim.spawn(Task(f"{self.name}/sys/surfaceflinger", surfaceflinger,
                           self.default_work_class))

            duty = self.ambient_ui_duty

            def ui_anim(ctx: TaskContext):
                period_s = 1.0 / VSYNC_HZ
                next_t = ctx.now_s
                while True:
                    if ctx.rng.random() < duty:
                        # Composite the *previous* frame while preparing
                        # the next: SF runs concurrently with the UI
                        # thread's own work (on another core).
                        sf_go.post()
                        yield Work(ctx.rng.lognormal(0.0014, 0.25))
                    next_t += period_s
                    yield SleepUntil(next_t)

            sim.spawn(Task(f"{self.name}/ui-anim", ui_anim, self.default_work_class))
        if self.ambient_bg_interval_ms > 0:
            self.add_background(sim, BackgroundSpec(
                "sys/services", mean_interval_ms=self.ambient_bg_interval_ms,
                units_mean=0.0018, units_sigma=0.5,
            ))
            self.add_background(sim, BackgroundSpec(
                "sys/kworker", mean_interval_ms=self.ambient_bg_interval_ms * 1.6,
                units_mean=0.0010, units_sigma=0.5,
            ))

    def build(self, sim: Simulator) -> None:
        raise NotImplementedError

    # -- metrics ----------------------------------------------------------

    def latency_s(self) -> float:
        """Total user-perceived latency: sum of action durations."""
        if self.metric is not Metric.LATENCY:
            raise ValueError(f"{self.name} is not a latency-oriented app")
        return sum(end - start for _, start, end in self.logs.actions)

    def avg_fps(self, warmup_s: float = WARMUP_S) -> float:
        """Average frames per second after a warmup period."""
        if self.metric is not Metric.FPS:
            raise ValueError(f"{self.name} is not an FPS-oriented app")
        frames = [t for t in self.logs.frames if t >= warmup_s]
        if len(frames) < 2:
            return 0.0
        span = frames[-1] - frames[0]
        if span <= 0:
            return 0.0
        return (len(frames) - 1) / span

    def min_fps(self, window_s: float = 1.0, warmup_s: float = WARMUP_S) -> float:
        """Worst frames-per-second over sliding one-second windows."""
        if self.metric is not Metric.FPS:
            raise ValueError(f"{self.name} is not an FPS-oriented app")
        frames = [t for t in self.logs.frames if t >= warmup_s]
        if not frames:
            return 0.0
        end = frames[-1]
        worst = float("inf")
        t = warmup_s
        while t + window_s <= end:
            count = sum(1 for f in frames if t <= f < t + window_s)
            worst = min(worst, count / window_s)
            t += window_s
        return 0.0 if worst == float("inf") else worst

    # -- reusable thread builders -----------------------------------------

    def _work_class(self, spec_class: Optional[WorkClass]) -> WorkClass:
        return spec_class if spec_class is not None else self.default_work_class

    def add_periodic(self, sim: Simulator, spec: PeriodicSpec) -> Task:
        wc = self._work_class(spec.work_class)

        def behavior(ctx: TaskContext):
            if spec.phase_ms > 0:
                yield Sleep(spec.phase_ms / 1000.0)
            period_s = spec.period_ms / 1000.0
            next_t = ctx.now_s
            while True:
                if spec.duty_prob >= 1.0 or ctx.rng.random() < spec.duty_prob:
                    yield Work(ctx.rng.lognormal(spec.units_mean, spec.units_sigma))
                next_t += period_s
                yield SleepUntil(next_t)

        task = Task(f"{self.name}/{spec.name}", behavior, wc)
        sim.spawn(task)
        return task

    def add_background(self, sim: Simulator, spec: BackgroundSpec) -> Task:
        wc = self._work_class(spec.work_class)

        def behavior(ctx: TaskContext):
            while True:
                yield Sleep(ctx.rng.expovariate(1000.0 / spec.mean_interval_ms))
                yield Work(ctx.rng.lognormal(spec.units_mean, spec.units_sigma))

        task = Task(f"{self.name}/{spec.name}", behavior, wc)
        sim.spawn(task)
        return task

    def add_worker_pool(
        self,
        sim: Simulator,
        count: int,
        units_sigma: float = 0.4,
        work_class: Optional[WorkClass] = None,
    ) -> tuple[list[Channel], Channel]:
        """Spawn ``count`` burst workers.

        Each worker has its own dispatch channel carrying no payload; the
        burst size is sampled worker-side from the size posted via
        :attr:`_worker_units` (set per dispatch by the driver through a
        shared cell).  Returns (dispatch channels, completion channel).
        """
        wc = self._work_class(work_class)
        done = sim.channel(f"{self.name}/workers-done")
        dispatches = []
        for i in range(count):
            chan = sim.channel(f"{self.name}/worker{i}-dispatch")
            dispatches.append(chan)

            def behavior(ctx: TaskContext, chan: Channel = chan):
                while True:
                    yield WaitSignal(chan)
                    units = self._worker_units * ctx.rng.lognormal(1.0, units_sigma)
                    yield from fragmented_work(ctx, units)
                    done.post()

            sim.spawn(Task(f"{self.name}/worker{i}", behavior, wc))
        return dispatches, done

    _worker_units: float = 0.0

    def add_driver(
        self,
        sim: Simulator,
        actions: list[ActionSpec],
        n_workers: int,
        units_sigma: float = 0.4,
        work_class: Optional[WorkClass] = None,
        stop_when_done: bool = True,
        think_jitter: float = 0.3,
    ) -> Task:
        """Spawn the main/UI thread executing the user action script."""
        wc = self._work_class(work_class)
        dispatches, done = (
            self.add_worker_pool(sim, n_workers, units_sigma, work_class)
            if n_workers > 0
            else ([], None)
        )

        def behavior(ctx: TaskContext):
            for action in actions:
                start = ctx.now_s
                # Each user action begins with an input event (touch),
                # which boost-capable governors react to.
                ctx.notify_input()
                for _ in range(action.rounds):
                    # Fan out to workers first so they overlap with the
                    # main thread's own burst (raising concurrency the
                    # way real parallel renderers/parsers do).
                    if dispatches and action.worker_units > 0:
                        self._worker_units = action.worker_units
                        for chan in dispatches:
                            chan.post()
                    if action.main_units > 0:
                        yield from fragmented_work(
                            ctx, ctx.rng.lognormal(action.main_units, units_sigma)
                        )
                    if action.io_ms > 0:
                        yield Sleep(action.io_ms / 1000.0)
                    if dispatches and action.worker_units > 0:
                        yield WaitSignal(done, count=len(dispatches))
                self.logs.actions.append((action.name, start, ctx.now_s))
                if action.think_ms > 0:
                    yield Sleep(
                        action.think_ms
                        / 1000.0
                        * ctx.rng.uniform(1.0 - think_jitter, 1.0 + think_jitter)
                    )
            if stop_when_done:
                ctx.request_stop()

        task = Task(f"{self.name}/main", behavior, wc)
        sim.spawn(task)
        return task

    # Scene-phase intensity shared between the pipeline's threads; the
    # logic thread updates it at phase boundaries.
    _scene_factor: float = 1.0

    def add_frame_pipeline(self, sim: Simulator, spec: FramePipelineSpec) -> Task:
        """Spawn the double-buffered 60 Hz pipeline; frames are logged."""
        wc = self._work_class(spec.work_class)
        render_go = sim.channel(f"{self.name}/render-go")
        render_free = sim.channel(f"{self.name}/render-free")
        render_free.post(2)  # two frames in flight (double buffering)

        helper_chans = [
            sim.channel(f"{self.name}/frame-helper{i}") for i in range(spec.helpers)
        ]
        for i, chan in enumerate(helper_chans):
            def helper(ctx: TaskContext, chan: Channel = chan):
                while True:
                    yield WaitSignal(chan)
                    yield Work(ctx.rng.lognormal(spec.helper_units, spec.units_sigma))

            sim.spawn(Task(f"{self.name}/frame-helper{i}", helper, wc))

        use_gpu = spec.gpu_units > 0 and sim.gpu is not None
        gpu_done = sim.channel(f"{self.name}/gpu-done") if use_gpu else None

        def render(ctx: TaskContext):
            while True:
                yield WaitSignal(render_go)
                for chan in helper_chans:
                    chan.post()
                units = self._scene_factor * ctx.rng.lognormal(
                    spec.render_units, spec.units_sigma
                )
                yield Work(units)
                if use_gpu:
                    sim.gpu.submit(
                        self._scene_factor
                        * ctx.rng.lognormal(spec.gpu_units, spec.units_sigma),
                        gpu_done,
                    )
                    yield WaitSignal(gpu_done)
                self.logs.frames.append(ctx.now_s)
                render_free.post()

        def logic(ctx: TaskContext):
            period_s = 1.0 / spec.fps
            next_vsync = ctx.now_s
            phase_end = ctx.now_s
            while True:
                if spec.heavy_prob > 0 and ctx.now_s >= phase_end:
                    heavy = ctx.rng.random() < spec.heavy_prob
                    self._scene_factor = spec.heavy_factor if heavy else 1.0
                    phase_end = ctx.now_s + ctx.rng.expovariate(1.0 / spec.phase_mean_s)
                if spec.stall_prob > 0 and ctx.rng.random() < spec.stall_prob:
                    stall_s = ctx.rng.expovariate(1000.0 / spec.stall_ms_mean)
                    yield Sleep(stall_s)
                    next_vsync = ctx.now_s
                yield WaitSignal(render_free)
                units = self._scene_factor * ctx.rng.lognormal(
                    spec.logic_units, spec.units_sigma
                )
                yield Work(units)
                render_go.post()
                next_vsync += period_s
                if ctx.now_s < next_vsync:
                    yield SleepUntil(next_vsync)
                else:
                    # Missed the vsync: start the next frame immediately
                    # and re-anchor so a long stall does not cause a
                    # burst of back-to-back frames.
                    next_vsync = ctx.now_s

        sim.spawn(Task(f"{self.name}/render", render, wc))
        task = Task(f"{self.name}/logic", logic, wc)
        sim.spawn(task)
        return task
