"""Parallel, cached, fault-tolerant execution of :class:`RunSpec` batches.

:class:`BatchRunner` is the single execution path for every multi-run
experiment in the repository.  It consults the on-disk
:class:`~repro.runner.cache.ResultCache` before simulating anything,
hands the remaining work to a pluggable :class:`~repro.runner.executors.
Executor` backend, and returns results **in spec order** regardless of
completion order — so every backend is bit-identical to the serial
inline path (``workers=1`` or ``executor="serial"``).

Backends (see :mod:`repro.runner.executors`):

- ``SerialExecutor`` — inline, nothing crosses a process boundary;
- ``PoolExecutor`` — a ``ProcessPoolExecutor`` shard across local
  cores, with crash recovery;
- ``repro.dist.DistExecutor`` — TCP workers on other hosts pulling
  jobs from a coordinator (``executor="tcp://host:port"``).

Fault tolerance (identical across backends):

- per-job **timeouts** are enforced *inside* the executing process via
  ``SIGALRM`` (they interrupt a genuinely hung simulation and surface as
  an ordinary job failure, never poisoning the backend); the distributed
  backend adds a coordinator-side deadline for workers that cannot arm
  an alarm or have wedged entirely;
- a **worker death** (pool crash, killed remote worker) surfaces as a
  ``worker_died`` completion; the runner charges the group one attempt
  and resubmits it — the crash is attributable to one of its jobs but
  the executor cannot say which;
- every job gets up to ``retries`` re-executions before it is recorded
  as ``failed``/``timeout`` in the :class:`BatchReport` — one bad job
  never aborts the batch.

Cohorts (``cohorts=True``): specs that differ only in the two
comparison-only governor axes — a fold family, see
:mod:`repro.runner.sweepfold` — are grouped into one cohort, which runs
witness-certified sweep folding (:mod:`repro.runner.cohort`); every
other spec stays a group of its own.  A cohort is the unit an executor
receives (one pool job / one distributed job per cohort), because
splitting a fold family forfeits the folding that makes cohorts
fast.  Results, ``BatchReport.jobs`` order
and labels, and cache entries are identical to per-run execution; any
cohort failure falls back to per-run execution of its members with
their retry budgets intact.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.obs.metrics import TRANSPORT_BUCKETS_BYTES, global_metrics
from repro.runner.cache import ResultCache
from repro.runner.events import EventCallback, EventSink
from repro.runner.executors import (  # noqa: F401  (re-exported: public API + test hooks)
    Completion,
    Executor,
    JobTimeout,
    PoolExecutor,
    SerialExecutor,
    _alarmed,
    _execute_cohort_job,
    _execute_job,
    _worker_init,
    make_executor,
)
from repro.runner.spec import RunResult, RunSpec

#: Job statuses recorded in a :class:`JobRecord`.
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


@dataclass
class JobRecord:
    """Outcome of one spec in a batch."""

    index: int
    spec_key: str
    label: str
    status: str
    attempts: int
    duration_s: float
    error: Optional[str] = None


@dataclass
class BatchReport:
    """Per-job records plus the aggregate counters of one batch run."""

    results: list[Optional[RunResult]]
    jobs: list[JobRecord]
    workers: int
    wall_s: float
    cache_hits: int
    cache_misses: int
    #: Trace-payload bytes that crossed the worker→parent pickle stream
    #: (0 for serial/inline runs and for cache hits).
    transport_bytes: int = 0

    @property
    def n_jobs(self) -> int:
        return len(self.jobs)

    @property
    def ok_count(self) -> int:
        return sum(1 for j in self.jobs if j.status in (STATUS_OK, STATUS_CACHED))

    @property
    def failed_count(self) -> int:
        return sum(1 for j in self.jobs if j.status in (STATUS_FAILED, STATUS_TIMEOUT))

    def succeeded(self) -> bool:
        return self.failed_count == 0

    def metrics_snapshots(self) -> dict[int, dict]:
        """Observability snapshots by job index (``observe=True`` jobs only)."""
        return {
            i: r.metrics
            for i, r in enumerate(self.results)
            if r is not None and r.metrics is not None
        }

    def throughput_jobs_per_s(self) -> float:
        """Completed simulations (cache hits excluded) per wall second."""
        if self.wall_s <= 0:
            return 0.0
        executed = sum(1 for j in self.jobs if j.status == STATUS_OK)
        return executed / self.wall_s

    def raise_on_failure(self) -> None:
        failures = [j for j in self.jobs if j.status in (STATUS_FAILED, STATUS_TIMEOUT)]
        if failures:
            detail = "; ".join(
                f"#{j.index} {j.label}: {j.status} ({j.error})" for j in failures[:5]
            )
            raise RuntimeError(
                f"{len(failures)}/{self.n_jobs} batch jobs failed: {detail}"
            )

    def render(self) -> str:
        from repro.core.report import render_table

        rows = []
        for job in self.jobs:
            result = self.results[job.index]
            metric = ""
            power = ""
            if result is not None:
                value = result.performance_value()
                unit = "s" if result.metric == "latency" else "fps"
                metric = f"{value:.2f} {unit}"
                power = f"{result.avg_power_mw:.0f}"
            rows.append([
                job.index, job.label, job.status, job.attempts,
                f"{job.duration_s:.2f}", metric, power,
                job.error or "",
            ])
        table = render_table(
            ["#", "job", "status", "att", "time (s)", "metric", "mW", "error"],
            rows,
            title=(
                f"Batch: {self.ok_count}/{self.n_jobs} ok, "
                f"{self.cache_hits} cached, workers={self.workers}, "
                f"{self.wall_s:.1f}s wall, "
                f"{self.throughput_jobs_per_s():.2f} sims/s"
            ),
        )
        return table


@dataclass
class _Job:
    """Internal mutable per-spec bookkeeping."""

    index: int
    spec: RunSpec
    attempts: int = 0
    duration_s: float = 0.0


class BatchRunner:
    """Runs a list of :class:`RunSpec` and returns a :class:`BatchReport`.

    Args:
        workers: process count; ``None`` uses ``os.cpu_count()``; ``1``
            selects the serial inline path, which produces bit-identical
            results.
        cache: a :class:`ResultCache`, ``True`` for the default cache
            directory, or ``None``/``False`` to disable caching.
        timeout_s: per-job wall-clock budget (``None`` = unlimited).
        retries: re-executions granted to a failing job before it is
            recorded as failed.
        on_event: callback receiving every :class:`RunnerEvent`.
        log_path: append structured events to this JSONL file.
        cohorts: group each fold family (see
            :func:`repro.runner.cohort.group_indices`) into one cohort
            job that folds governor sweeps.  Results, report order, and
            cache entries are identical to per-run execution; a failing
            cohort falls back to per-run for its members.
        executor: execution backend override — an
            :class:`~repro.runner.executors.Executor` instance (shared;
            the runner will not close it), ``"serial"``, ``"pool"``, or
            a ``tcp://host:port`` endpoint that starts a
            :class:`repro.dist.Coordinator` for remote ``biglittle
            worker`` processes.  ``None`` (default) picks serial or
            pool from ``workers``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache: Union[ResultCache, bool, None] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        on_event: Optional[EventCallback] = None,
        log_path: Optional[str] = None,
        cohorts: bool = False,
        executor: Union[Executor, str, None] = None,
    ):
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be non-negative, got {retries}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if cache is True:
            self.cache: Optional[ResultCache] = ResultCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.timeout_s = timeout_s
        self.retries = retries
        self.on_event = on_event
        self.log_path = log_path
        self.cohorts = cohorts
        self.executor = executor
        self._transport_bytes = 0

    # -- public API ---------------------------------------------------------

    def run(self, specs: Iterable[RunSpec]) -> BatchReport:
        """Execute every spec; never raises for individual job failures."""
        spec_list = list(specs)
        n = len(spec_list)
        results: list[Optional[RunResult]] = [None] * n
        records: list[Optional[JobRecord]] = [None] * n
        executor, owned = make_executor(
            self.executor,
            self.workers,
            cache_root=self.cache.root if self.cache is not None else None,
        )
        serial = isinstance(executor, SerialExecutor)
        self._transport_bytes = 0
        t0 = time.monotonic()

        try:
            with EventSink(self.on_event, self.log_path) as sink:
                sink.emit(
                    "batch_start",
                    extra={
                        "n_jobs": n,
                        "workers": (
                            1 if serial
                            else min(executor.parallelism(), max(1, n))
                        ),
                        "serial": serial,
                        "executor": type(executor).__name__,
                    },
                )
                pending: list[_Job] = []
                cache_hits = 0
                for i, spec in enumerate(spec_list):
                    cached = self.cache.load(spec) if self.cache is not None else None
                    if cached is not None:
                        cache_hits += 1
                        results[i] = cached
                        records[i] = JobRecord(
                            index=i, spec_key=spec.key(), label=spec.label(),
                            status=STATUS_CACHED, attempts=0, duration_s=0.0,
                        )
                        sink.emit(
                            "cache_hit", index=i, spec_key=spec.key(),
                            label=spec.label(), status=STATUS_CACHED,
                        )
                    else:
                        pending.append(_Job(index=i, spec=spec))

                groups = self._group_pending(pending, sink)
                if groups:
                    self._drive(groups, executor, results, records, sink)

                wall_s = time.monotonic() - t0
                report = BatchReport(
                    results=results,
                    jobs=[r for r in records if r is not None],
                    workers=1 if serial else executor.parallelism(),
                    wall_s=wall_s,
                    cache_hits=cache_hits,
                    cache_misses=len(pending),
                    transport_bytes=self._transport_bytes,
                )
                sink.emit(
                    "batch_done",
                    extra={
                        "ok": report.ok_count,
                        "failed": report.failed_count,
                        "cache_hits": cache_hits,
                        "wall_s": round(wall_s, 3),
                    },
                )
        finally:
            if owned:
                executor.close()
        return report

    def run_one(self, spec: RunSpec) -> RunResult:
        """Convenience: run a single spec, raising if it failed."""
        report = self.run([spec])
        report.raise_on_failure()
        result = report.results[0]
        assert result is not None
        return result

    # -- cohort grouping ----------------------------------------------------

    def _group_pending(
        self, pending: Sequence[_Job], sink: EventSink
    ) -> list[list[_Job]]:
        """Partition pending jobs into execution groups.

        Singleton groups everywhere unless cohort mode is on; then each
        fold family is one group.  Grouping preserves submit order within
        each cohort, and records/results stay keyed by the original spec
        index either way.
        """
        if not (self.cohorts and len(pending) > 1):
            return [[job] for job in pending]
        from repro.runner.cohort import group_indices

        groups = [
            [pending[i] for i in member_indices]
            for member_indices in group_indices([job.spec for job in pending])
        ]
        for group in groups:
            if len(group) > 1:
                sink.emit(
                    "cohort_start",
                    extra={
                        "size": len(group),
                        "indices": [job.index for job in group],
                        "label": group[0].spec.label(),
                    },
                )
        return groups

    def _cohort_fallback(
        self, group: Sequence[_Job], exc: BaseException, sink: EventSink
    ) -> list[list[_Job]]:
        """A cohort failed: emit the event, return per-run fallback groups.

        Cohort attempts are not charged against the members' retry
        budgets — the fallback *is* the graceful-degradation path, so
        each member still gets its full per-run attempt allowance.
        """
        sink.emit(
            "cohort_fallback",
            extra={
                "size": len(group),
                "indices": [job.index for job in group],
                "error": repr(exc),
            },
        )
        return [[job] for job in group]

    # -- outcome bookkeeping ------------------------------------------------

    def _account_transport(self, result: RunResult) -> None:
        """Record one transported result's trace-payload size.

        Called only when results crossed a process boundary (pool or
        distributed backends; serial/inline results never do).
        """
        payload = result.transport_nbytes()
        reg = global_metrics()
        reg.counter("runner.transport.results").inc()
        reg.counter("runner.transport.bytes").inc(payload)
        reg.histogram(
            "runner.transport.result_bytes", TRANSPORT_BUCKETS_BYTES
        ).observe(payload)
        self._transport_bytes += payload

    def _finish_ok(
        self,
        job: _Job,
        result: RunResult,
        results: list[Optional[RunResult]],
        records: list[Optional[JobRecord]],
        sink: EventSink,
        transported: bool = False,
    ) -> None:
        if transported:
            self._account_transport(result)
        if self.cache is not None:
            self.cache.store(job.spec, result)
        results[job.index] = result
        records[job.index] = JobRecord(
            index=job.index, spec_key=job.spec.key(), label=job.spec.label(),
            status=STATUS_OK, attempts=job.attempts, duration_s=job.duration_s,
        )
        sink.emit(
            "job_done", index=job.index, spec_key=job.spec.key(),
            label=job.spec.label(), status=STATUS_OK, attempt=job.attempts,
            duration_s=round(job.duration_s, 4),
        )

    def _finish_failed(
        self,
        job: _Job,
        exc: BaseException,
        records: list[Optional[JobRecord]],
        sink: EventSink,
    ) -> None:
        status = STATUS_TIMEOUT if isinstance(exc, JobTimeout) else STATUS_FAILED
        records[job.index] = JobRecord(
            index=job.index, spec_key=job.spec.key(), label=job.spec.label(),
            status=status, attempts=job.attempts, duration_s=job.duration_s,
            error=repr(exc),
        )
        sink.emit(
            "job_failed", index=job.index, spec_key=job.spec.key(),
            label=job.spec.label(), status=status, attempt=job.attempts,
            duration_s=round(job.duration_s, 4), error=repr(exc),
        )

    def _should_retry(self, job: _Job, exc: BaseException, sink: EventSink) -> bool:
        if job.attempts <= self.retries:
            sink.emit(
                "job_retry", index=job.index, spec_key=job.spec.key(),
                label=job.spec.label(), attempt=job.attempts, error=repr(exc),
            )
            return True
        return False

    def _finish_group_ok(
        self,
        group: Sequence[_Job],
        payload,
        results: list[Optional[RunResult]],
        records: list[Optional[JobRecord]],
        sink: EventSink,
        transported: bool,
    ) -> None:
        """Record a successful group completion (cohort list or single result)."""
        if len(group) > 1:
            for job, result in zip(group, payload):
                job.attempts += 1
                self._finish_ok(
                    job, result, results, records, sink, transported=transported
                )
        else:
            self._finish_ok(
                group[0], payload, results, records, sink, transported=transported
            )

    # -- driver -------------------------------------------------------------

    def _drive(
        self,
        groups: Sequence[Sequence[_Job]],
        executor: Executor,
        results: list[Optional[RunResult]],
        records: list[Optional[JobRecord]],
        sink: EventSink,
    ) -> None:
        """Submit groups and consume completions until nothing is in flight.

        Attempt accounting is the historical contract: single-spec
        groups are charged one attempt **at submit** (so a worker death
        consumes a retry), cohorts on successful completion only — a
        failing cohort falls back to per-run groups with its members'
        retry budgets untouched.
        """
        next_token = 0
        inflight: dict[int, Sequence[_Job]] = {}
        submit_t: dict[int, float] = {}

        def _submit(group: Sequence[_Job]) -> None:
            nonlocal next_token
            token = next_token
            next_token += 1
            if len(group) == 1:
                group[0].attempts += 1
            inflight[token] = group
            submit_t[token] = time.monotonic()
            executor.submit(token, [job.spec for job in group], self.timeout_s)

        for group in groups:
            _submit(group)
        while inflight:
            completions = executor.poll()
            if not completions:
                if executor.outstanding() or inflight:
                    raise RuntimeError(
                        f"executor {type(executor).__name__} returned no "
                        f"completions with {len(inflight)} groups in flight"
                    )
                break
            resubmit: list[Sequence[_Job]] = []
            for comp in completions:
                group = inflight.pop(comp.token)
                elapsed = time.monotonic() - submit_t.pop(comp.token)
                for job in group:
                    job.duration_s += elapsed
                if comp.error is None:
                    self._finish_group_ok(
                        group, comp.payload, results, records, sink,
                        transported=executor.transported,
                    )
                elif len(group) > 1:
                    resubmit.extend(self._cohort_fallback(group, comp.error, sink))
                elif self._should_retry(group[0], comp.error, sink):
                    resubmit.append(group)
                else:
                    self._finish_failed(group[0], comp.error, records, sink)
            for group in resubmit:
                _submit(group)


def run_specs(
    specs: Iterable[RunSpec],
    workers: Optional[int] = None,
    cache: Union[ResultCache, bool, None] = None,
    **kwargs,
) -> list[RunResult]:
    """One-shot helper: run specs, raise on any failure, return results.

    The workhorse of the rewired experiment sweeps — callers get results
    in spec order and can zip them straight back onto their spec grid.
    """
    report = BatchRunner(workers=workers, cache=cache, **kwargs).run(specs)
    report.raise_on_failure()
    return [r for r in report.results if r is not None]
