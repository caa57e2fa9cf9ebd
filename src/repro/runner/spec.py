"""The job model of the experiment runner.

A :class:`RunSpec` is a picklable, stably-hashable description of *one*
simulation: a workload, a platform (chip + enabled cores), scheduler and
governor parameters, a seed, and a wall-clock cap.  Its :meth:`RunSpec.key`
is a content hash of the canonical JSON manifest, so two specs that
describe the same simulation always share a key — the foundation of the
on-disk result cache and of deterministic batch ordering.

Two small registries keep specs declarative:

- the **chip registry** maps short chip ids (``"exynos5422"``,
  ``"exynos5422-screen"``) to :class:`~repro.platform.chip.ChipSpec`
  factories; a raw ``ChipSpec`` object may also be embedded directly,
  in which case it is content-hashed through
  :func:`repro.experiments.serialize.to_jsonable`;
- the **kind registry** maps a spec's ``kind`` to the function that
  turns the spec into a :class:`RunResult`.  The built-in ``"app"`` kind
  builds its simulation with :func:`repro.core.study.build_app_sim`,
  as :func:`repro.core.study.run_app` does; any other kind is
  resolved as a ``"package.module:callable"`` dotted path, so worker
  processes can execute custom kinds regardless of how they were
  spawned.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import json
import pickle
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional, Union

from repro.core.study import build_app_sim
from repro.platform.chip import ChipSpec, CoreConfig, exynos5422
from repro.sched.params import (
    GovernorParams,
    HMPParams,
    SchedulerConfig,
    baseline_config,
)
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.sim.traceio import LazyTrace
from repro.workloads.base import Metric

#: Valid ``RunSpec.trace_policy`` values — what happens to the dense
#: trace once the worker has finished reductions:
#:
#: - ``"rle"`` (the default): ship the run-length-encoded form; the
#:   parent sees a :class:`~repro.sim.traceio.LazyTrace` that inflates
#:   on first dense access;
#: - ``"none"``: drop the trace — only scalars and reductions return.
TRACE_POLICIES = ("rle", "none")

# ---------------------------------------------------------------------------
# Chip registry
# ---------------------------------------------------------------------------

_CHIP_FACTORIES: dict[str, Callable[[], ChipSpec]] = {
    "exynos5422": exynos5422,
    "exynos5422-screen": lambda: exynos5422(screen_on=True),
}

#: Default platform for interactive-app runs (screen on, paper Sec. III).
DEFAULT_CHIP_ID = "exynos5422-screen"


def register_chip(chip_id: str, factory: Callable[[], ChipSpec]) -> None:
    """Register a named chip factory usable as ``RunSpec.chip``.

    Re-registering an id invalidates the per-process chip memo, so the
    next :func:`resolve_chip` call sees the new factory.
    """
    _CHIP_FACTORIES[chip_id] = factory
    _cached_chip.cache_clear()


@lru_cache(maxsize=None)
def _cached_chip(chip_id: str) -> ChipSpec:
    """Build a registry chip once per worker process.

    A :class:`ChipSpec` is treated as immutable platform data by the
    simulator (cores are instantiated fresh per run; the chip itself is
    only read), so every run in a process can share one instance.
    Sharing also warms the power model's OPP-quantized memo across runs
    instead of rebuilding it per simulation.
    """
    return _CHIP_FACTORIES[chip_id]()


def resolve_chip(chip: Union[str, ChipSpec]) -> ChipSpec:
    """Instantiate the chip a spec names (registry id or inline object).

    Registry ids are memoized per process; registered factories must
    therefore return specs the caller will not mutate afterwards.
    """
    if isinstance(chip, ChipSpec):
        return chip
    try:
        return _cached_chip(chip)
    except KeyError:
        raise KeyError(
            f"unknown chip id {chip!r}; registered: {', '.join(sorted(_CHIP_FACTORIES))}"
        ) from None


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

#: Longest label component kept verbatim; anything longer is truncated
#: to a prefix plus a short content hash (see :meth:`RunSpec.label`).
LABEL_COMPONENT_MAX = 36


def _label_component(text: str) -> str:
    if len(text) <= LABEL_COMPONENT_MAX:
        return text
    digest = hashlib.sha256(text.encode()).hexdigest()[:6]
    return f"{text[: LABEL_COMPONENT_MAX - 7]}~{digest}"


@dataclass(frozen=True)
class RunSpec:
    """One simulation, fully described.

    Attributes:
        workload: application name (any :func:`repro.workloads.mobile.make_app`
            name, paper or extended suite).
        kind: execution-kind registry key; ``"app"`` (default) runs the
            workload exactly like :func:`repro.core.study.run_app`.
            Anything else is resolved as a ``module:callable`` path.
        chip: chip registry id, or an inline :class:`ChipSpec` (content-
            hashed; prefer registry ids for readable cache manifests).
        core_config: enabled-core label in the paper's notation
            (``"L4+B4"``, ``"L2+B1"``); ``None`` enables all cores.
        scheduler: HMP + governor parameter set.
        seed: RNG stream seed.
        max_seconds: wall-clock cap; ``None`` applies the app-family
            default (12 s FPS steady-state / 60 s latency cap).
        observe: attach :class:`repro.obs.Observation` to the run; the
            resulting metrics snapshot rides back on
            :attr:`RunResult.metrics` (observation never changes the
            simulated trace, so observed and unobserved runs are
            bit-identical — but the key differs so cached unobserved
            results, which lack the snapshot, are not reused).
        reductions: names from the :mod:`repro.core.reductions` registry
            to execute **inside the worker**; payloads ride back on
            :attr:`RunResult.reductions` and cache with the scalars.
        trace_policy: what to do with the dense trace after reductions —
            one of :data:`TRACE_POLICIES`.  The default ``"rle"`` keeps
            the trace addressable at run-length cost (it inflates on
            first dense access); experiments that only read
            scalars/reductions should declare ``"none"`` (nothing but a
            few hundred bytes crosses the pool).
    """

    workload: str
    kind: str = "app"
    chip: Union[str, ChipSpec] = DEFAULT_CHIP_ID
    core_config: Optional[str] = None
    scheduler: SchedulerConfig = field(default_factory=baseline_config)
    seed: int = 0
    max_seconds: Optional[float] = None
    observe: bool = False
    reductions: tuple[str, ...] = ()
    trace_policy: str = "rle"

    def __post_init__(self):
        if self.trace_policy not in TRACE_POLICIES:
            raise ValueError(
                f"unknown trace_policy {self.trace_policy!r}; "
                f"valid: {', '.join(TRACE_POLICIES)}"
            )
        if not isinstance(self.reductions, tuple):
            # Accept any iterable of names but store the hashable form.
            object.__setattr__(self, "reductions", tuple(self.reductions))

    def manifest(self) -> dict[str, Any]:
        """Canonical JSON-compatible description (the hashed identity)."""
        # Local import: repro.experiments re-exports the sweeps that are
        # built on this module, so a top-level import would be circular.
        from repro.experiments.serialize import to_jsonable

        chip: Any = self.chip
        if isinstance(chip, ChipSpec):
            chip = {"inline": to_jsonable(chip)}
        manifest = {
            "kind": self.kind,
            "workload": self.workload,
            "chip": chip,
            "core_config": self.core_config,
            "scheduler": to_jsonable(self.scheduler),
            "seed": self.seed,
            "max_seconds": self.max_seconds,
        }
        # Only stamped when set, so every pre-existing cache key is
        # unchanged for specs using the historical defaults.  A
        # default-policy spec hashes as the dense-policy default did;
        # the package version partitions the two in the cache.
        if self.observe:
            manifest["observe"] = True
        if self.reductions:
            manifest["reductions"] = list(self.reductions)
        if self.trace_policy != "rle":
            manifest["trace_policy"] = self.trace_policy
        return manifest

    def key(self) -> str:
        """Stable content hash of the manifest (cache key component).

        Computed once per instance: the memo lives outside the dataclass
        fields, so equality, hashing, ``replace`` and the wire codec
        ignore it, and :meth:`__getstate__` keeps it out of pickles.
        """
        key = self.__dict__.get("_key")
        if key is None:
            payload = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
            key = hashlib.sha256(payload.encode()).hexdigest()[:24]
            object.__setattr__(self, "_key", key)
        return key

    def __getstate__(self) -> dict[str, Any]:
        """Pickle the fields only, never the key memo."""
        state = dict(self.__dict__)
        state.pop("_key", None)
        return state

    def label(self) -> str:
        """Short human-readable identity for logs and progress lines.

        Bounded regardless of how elaborate the spec is: any component
        longer than :data:`LABEL_COMPONENT_MAX` (sweep-generated
        scheduler names, parameter-stuffed chip names) is truncated to
        a prefix plus a 6-hex content hash, so thousand-point explore
        studies keep one-line progress events one line.  An inline
        chip contributes its (truncated) name — two specs differing
        only in topology must not share a label.
        """
        parts = [_label_component(self.workload)]
        if isinstance(self.chip, ChipSpec):
            parts.append(_label_component(self.chip.name))
        if self.core_config:
            parts.append(_label_component(self.core_config))
        if self.scheduler.name != "baseline":
            parts.append(_label_component(self.scheduler.name))
        parts.append(f"s{self.seed}")
        return "/".join(parts)


# ---------------------------------------------------------------------------
# Wire codec (distributed execution)
# ---------------------------------------------------------------------------


def spec_to_wire(spec: RunSpec) -> dict[str, Any]:
    """Encode a spec as a JSON-compatible dict for the dist protocol.

    Unlike :meth:`RunSpec.manifest` (a one-way hash input), this form is
    lossless: :func:`spec_from_wire` reconstructs a spec with the same
    content key, so a remote worker's result is stored under the same
    cache key as a local one.  Scheduler parameters travel field-wise (frozen
    dataclasses of primitives); a registry chip travels as its id, an
    inline :class:`ChipSpec` as a pickle (base64) — acceptable on a
    trusted cluster where the coordinator has already version-matched
    the worker.
    """
    chip: Any = spec.chip
    if isinstance(chip, ChipSpec):
        chip = {"pickle": base64.b64encode(pickle.dumps(chip)).decode("ascii")}
    return {
        "workload": spec.workload,
        "kind": spec.kind,
        "chip": chip,
        "core_config": spec.core_config,
        "scheduler": {
            "name": spec.scheduler.name,
            "hmp": asdict(spec.scheduler.hmp),
            "governor": asdict(spec.scheduler.governor),
        },
        "seed": spec.seed,
        "max_seconds": spec.max_seconds,
        "observe": spec.observe,
        "reductions": list(spec.reductions),
        "trace_policy": spec.trace_policy,
    }


def spec_from_wire(data: dict[str, Any]) -> RunSpec:
    """Inverse of :func:`spec_to_wire`; preserves :meth:`RunSpec.key`."""
    chip: Any = data["chip"]
    if isinstance(chip, dict):
        chip = pickle.loads(base64.b64decode(chip["pickle"]))
    sched = data["scheduler"]
    scheduler = SchedulerConfig(
        name=sched["name"],
        hmp=HMPParams(**sched["hmp"]),
        governor=GovernorParams(**sched["governor"]),
    )
    return RunSpec(
        workload=data["workload"],
        kind=data["kind"],
        chip=chip,
        core_config=data["core_config"],
        scheduler=scheduler,
        seed=data["seed"],
        max_seconds=data["max_seconds"],
        observe=data["observe"],
        reductions=tuple(data["reductions"]),
        trace_policy=data["trace_policy"],
    )


# ---------------------------------------------------------------------------
# RunResult
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    """Everything a completed simulation reports back.

    Scalar metrics and any declared reductions are computed in the
    worker (the live ``App`` object is not shipped back); what rides
    along as ``trace`` depends on the spec's ``trace_policy`` — a
    lazily-inflating :class:`~repro.sim.traceio.LazyTrace`, or nothing.
    """

    spec_key: str
    workload: str
    metric: str  # Metric.value: "latency" | "fps"
    duration_s: float
    avg_power_mw: float
    energy_mj: float
    latency_s: Optional[float] = None
    avg_fps: Optional[float] = None
    min_fps: Optional[float] = None
    #: ``MetricsSnapshot.to_dict()`` of an observed run (``observe=True``),
    #: else ``None``.  Plain JSON, so it caches with the other scalars.
    metrics: Optional[dict[str, Any]] = None
    #: ``{reduction name -> JSON payload}`` for the spec's declared
    #: reductions (decode with :func:`repro.core.reductions.decode_reduction`),
    #: else ``None``.  Plain JSON, so it caches with the other scalars.
    reductions: Optional[dict[str, Any]] = None
    #: The RLE trace (``None`` under ``"none"``).  Only the unfinalized
    #: result of a kind function holds the dense :class:`Trace`, until
    #: :func:`finalize_result` encodes it.
    trace: Optional[LazyTrace] = None

    @property
    def metric_enum(self) -> Metric:
        return Metric(self.metric)

    def reduction(self, name: str) -> Any:
        """The decoded analysis object of one declared reduction."""
        if self.reductions is None or name not in self.reductions:
            raise KeyError(
                f"result for {self.workload!r} carries no {name!r} reduction; "
                f"available: {', '.join(sorted(self.reductions or ()))}"
            )
        from repro.core.reductions import decode_reduction

        return decode_reduction(name, self.reductions[name])

    def transport_nbytes(self) -> int:
        """Bytes the trace payload costs on the worker→parent pickle path.

        RLE traces cost their encoded payload, dropped traces
        (``"none"``) nothing — the scalar/reduction envelope is
        negligible and uncounted.
        """
        return 0 if self.trace is None else self.trace.payload_nbytes

    def performance_value(self) -> float:
        """The app's headline metric: latency (s) or average FPS."""
        if self.metric_enum is Metric.LATENCY:
            assert self.latency_s is not None
            return self.latency_s
        assert self.avg_fps is not None
        return self.avg_fps

    def scalars(self) -> dict[str, Any]:
        """The JSON-cacheable part (everything but the trace)."""
        return {
            "spec_key": self.spec_key,
            "workload": self.workload,
            "metric": self.metric,
            "duration_s": self.duration_s,
            "avg_power_mw": self.avg_power_mw,
            "energy_mj": self.energy_mj,
            "latency_s": self.latency_s,
            "avg_fps": self.avg_fps,
            "min_fps": self.min_fps,
            "metrics": self.metrics,
            "reductions": self.reductions,
        }


# ---------------------------------------------------------------------------
# Kind registry and execution
# ---------------------------------------------------------------------------

#: ``CoreConfig.parse`` memoized per process — frozen dataclass, so the
#: shared instance is safe; batches repeat the same handful of labels.
_parse_core_config = lru_cache(maxsize=None)(CoreConfig.parse)


@dataclass
class PreparedAppRun:
    """An installed-but-unrun app simulation (the first half of a run).

    Splitting :func:`_run_app_kind` at the ``sim.run()`` call lets the
    fold-family executor (:mod:`repro.runner.cohort`) attach a sweep
    witness to a representative's simulator before it runs, and then
    finish the run exactly as a solo run would have.
    """

    spec: RunSpec
    sim: Simulator
    app: Any
    observation: Any = None


def prepare_app_run(spec: RunSpec) -> PreparedAppRun:
    """Build, observe, and install one app-kind simulation (no run yet)."""
    app, sim = build_app_sim(
        spec.workload,
        chip=resolve_chip(spec.chip),
        core_config=(
            _parse_core_config(spec.core_config)
            if spec.core_config is not None else None
        ),
        scheduler=spec.scheduler,
        seed=spec.seed,
        max_seconds=spec.max_seconds,
    )
    observation = None
    if spec.observe:
        from repro.obs import Observation

        observation = Observation.attach(sim)
    app.install(sim)
    return PreparedAppRun(spec=spec, sim=sim, app=app, observation=observation)


def finish_app_run(prepared: PreparedAppRun) -> RunResult:
    """Turn one *completed* prepared run into its :class:`RunResult`."""
    spec, app = prepared.spec, prepared.app
    trace = prepared.sim.trace
    result = RunResult(
        spec_key=spec.key(),
        workload=spec.workload,
        metric=app.metric.value,
        duration_s=float(trace.duration_s),
        avg_power_mw=float(trace.average_power_mw()),
        energy_mj=float(trace.energy_mj()),
        trace=trace,
    )
    if app.metric is Metric.LATENCY:
        result.latency_s = float(app.latency_s())
    else:
        result.avg_fps = float(app.avg_fps())
        result.min_fps = float(app.min_fps())
    if prepared.observation is not None:
        result.metrics = prepared.observation.snapshot().to_dict()
    return result


def _run_app_kind(spec: RunSpec) -> RunResult:
    """Built-in kind: one Table II / extended app run (= ``run_app``)."""
    prepared = prepare_app_run(spec)
    prepared.sim.run()
    return finish_app_run(prepared)


_BUILTIN_KINDS: dict[str, Callable[[RunSpec], RunResult]] = {
    "app": _run_app_kind,
}


def resolve_kind(kind: str) -> Callable[[RunSpec], RunResult]:
    """Resolve a spec kind to its execution function.

    Built-in kinds resolve from the table; anything containing ``:`` is
    imported as ``package.module:callable``.  The dotted-path form keeps
    custom kinds executable inside pool workers under any multiprocessing
    start method — resolution happens in the worker, not via shared state.
    """
    fn = _BUILTIN_KINDS.get(kind)
    if fn is not None:
        return fn
    if ":" in kind:
        module_name, _, attr = kind.partition(":")
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if not callable(fn):
            raise TypeError(f"kind {kind!r} resolved to non-callable {fn!r}")
        return fn
    raise KeyError(
        f"unknown run kind {kind!r}; built-ins: {', '.join(sorted(_BUILTIN_KINDS))}, "
        "or use a 'package.module:callable' dotted path"
    )


def finalize_result(spec: RunSpec, result: RunResult) -> RunResult:
    """Apply the spec's reductions and trace policy to a fresh result.

    Runs in the executing process, *before* anything is pickled back:
    reductions see the dense trace, and the trace is then dropped or
    RLE-encoded per ``spec.trace_policy``.
    """
    if spec.reductions and result.trace is not None and result.reductions is None:
        from repro.core.reductions import compute_reductions

        result.reductions = compute_reductions(
            spec.reductions, result.trace, resolve_chip(spec.chip),
            result.scalars(),
        )
    if spec.trace_policy == "none":
        result.trace = None
    elif isinstance(result.trace, Trace):
        result.trace = LazyTrace.from_trace(result.trace)
    return result


def execute_spec(spec: RunSpec) -> RunResult:
    """Execute one spec in the current process (pool workers call this)."""
    return finalize_result(spec, resolve_kind(spec.kind)(spec))
