"""Pluggable execution backends behind :class:`~repro.runner.batch.BatchRunner`.

The runner used to hard-code two execution paths (an inline loop and a
``ProcessPoolExecutor`` wave loop).  Both now live behind one small
:class:`Executor` protocol — ``submit`` work groups, ``poll`` for
completions — so the same driver loop in
:class:`~repro.runner.batch.BatchRunner` also runs distributed sweeps
through :class:`repro.dist.DistExecutor` without knowing it.

A *group* is what the runner hands an executor in one ``submit`` call:
either a single :class:`~repro.runner.spec.RunSpec` or a whole cohort
(one fold family, see :mod:`repro.runner.cohort`).  Cohorts are the
unit of distribution on purpose: splitting a fold family across
executors forfeits the witness-certified sweep folding that makes
cohorts fast, so an executor always receives — and a remote worker
always executes — the whole group.

Executor contract:

- ``submit(token, specs, timeout_s)`` never blocks on execution;
- ``poll()`` blocks until at least one :class:`Completion` is available
  and returns every completion ready at that moment (``[]`` only when
  nothing is outstanding);
- a completion carries either ``payload`` (a :class:`RunResult` for a
  single spec, a list for a cohort) or ``error``; ``worker_died`` marks
  failures where the executing process vanished rather than raised —
  the runner charges those one attempt and may resubmit, exactly like
  the historical ``BrokenProcessPool`` recovery;
- ``transported`` tells the runner whether results crossed a process
  boundary (drives transport accounting).

The in-process alarm timeout machinery (:func:`_alarmed`,
:class:`JobTimeout`) and the job entry points (:func:`_execute_job`,
:func:`_execute_cohort_job`) live here so every backend — serial, pool
worker, and remote TCP worker — enforces budgets identically.
"""

from __future__ import annotations

import signal
import threading
from collections import deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.runner.spec import RunResult, RunSpec, execute_spec


class JobTimeout(Exception):
    """A job exceeded its per-job wall-clock budget."""


def _worker_init() -> None:
    """Pre-warm a pool worker before its first job.

    Building the default chip here populates the per-process chip memo
    (:func:`repro.runner.spec.resolve_chip`) and pulls the simulator
    stack through import, so the one-time cost lands at pool start-up
    instead of inside the first job's measured duration and SIGALRM
    budget.
    """
    from repro.runner.spec import DEFAULT_CHIP_ID, resolve_chip

    resolve_chip(DEFAULT_CHIP_ID)


#: Period at which an expired job's alarm keeps firing until the job
#: has unwound.  The interpreter can swallow a raise from the handler
#: (as "unraisable" when the signal lands inside a ``gc`` callback), and
#: a one-shot timer would then leave the job running unbounded.
ALARM_RETRY_S = 0.05


def _alarmed(fn, timeout_s: Optional[float], label: str):
    """Run ``fn()`` under an optional in-process ``SIGALRM`` timeout.

    Module-level machinery shared by single-spec and cohort jobs.  The
    alarm is only armed in a main thread (workers always are); elsewhere
    the job runs untimed rather than failing.  Once the budget expires
    the timer re-fires every :data:`ALARM_RETRY_S` seconds, so a
    :class:`JobTimeout` that never reaches the job is raised again.

    Handler hygiene: the previous ``SIGALRM`` disposition is restored
    and the itimer cancelled on **every** exit path — success, job
    exception, timeout, and even a failure while arming the timer —
    via nested ``try``/``finally``.  A leaked handler would fire inside
    the *next* job on this worker (the retry/crash branch reuses the
    process), mis-attributing the timeout.  An alarm that lands after
    ``fn()`` has returned or raised is ignored.
    """
    use_alarm = (
        timeout_s is not None
        and timeout_s > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not use_alarm:
        return fn()
    done = False

    def _on_alarm(_signum, _frame):  # pragma: no cover - exercised via raise
        if not done:
            raise JobTimeout(f"job exceeded {timeout_s:.3f}s: {label}")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s, ALARM_RETRY_S)
        try:
            return fn()
        finally:
            done = True
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def group_label(specs: Sequence[RunSpec]) -> str:
    """Log and timeout label of a work group: the spec, or its cohort."""
    if len(specs) == 1:
        return specs[0].label()
    return f"cohort[{len(specs)}] {specs[0].label()}"


def _execute_job(spec: RunSpec, timeout_s: Optional[float]) -> RunResult:
    """Execute one spec with an optional in-process alarm timeout."""
    return _alarmed(lambda: execute_spec(spec), timeout_s, spec.label())


def _execute_cohort_job(
    specs: list[RunSpec], timeout_s: Optional[float]
) -> list[RunResult]:
    """Execute one cohort (fold family), budgeted at ``timeout_s`` per member.

    The cohort does the work of ``len(specs)`` jobs in one process, so
    its wall-clock budget scales with its size; on timeout (or any
    other failure) the caller falls back to per-run execution, where
    each member gets its own ordinary budget.
    """
    from repro.runner.cohort import execute_cohort

    budget = timeout_s * len(specs) if timeout_s else timeout_s
    return _alarmed(lambda: execute_cohort(specs), budget, group_label(specs))


@dataclass
class Completion:
    """One finished work group, as reported by an executor's ``poll``."""

    token: int
    #: ``RunResult`` for a single-spec group, ``list[RunResult]`` for a
    #: cohort; ``None`` when ``error`` is set.
    payload: object = None
    error: Optional[BaseException] = None
    #: The executing process/worker vanished (crash, kill, lost
    #: connection) rather than raising — ``error`` then describes the
    #: loss, and the runner treats it as a retryable failure.
    worker_died: bool = False


class Executor:
    """Base class of the runner's execution backends."""

    #: Whether results cross a process boundary on their way back (the
    #: runner then does transport accounting).
    transported = True

    def parallelism(self) -> int:
        """How many groups can execute concurrently (>= 1)."""
        raise NotImplementedError

    def submit(
        self, token: int, specs: Sequence[RunSpec], timeout_s: Optional[float]
    ) -> None:
        raise NotImplementedError

    def poll(self) -> list[Completion]:
        """Block until at least one completion is ready, return all ready."""
        raise NotImplementedError

    def outstanding(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources; the executor is done after this."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Inline execution in the calling process, one group per ``poll``.

    The bit-identical reference path (``workers=1`` /
    ``executor="serial"``): nothing crosses a process boundary, and
    groups execute in FIFO submit order.
    """

    transported = False

    def __init__(self) -> None:
        self._queue: deque[tuple[int, list[RunSpec], Optional[float]]] = deque()

    def parallelism(self) -> int:
        return 1

    def submit(
        self, token: int, specs: Sequence[RunSpec], timeout_s: Optional[float]
    ) -> None:
        self._queue.append((token, list(specs), timeout_s))

    def poll(self) -> list[Completion]:
        if not self._queue:
            return []
        token, specs, timeout_s = self._queue.popleft()
        try:
            if len(specs) > 1:
                payload: object = _execute_cohort_job(specs, timeout_s)
            else:
                payload = _execute_job(specs[0], timeout_s)
        except Exception as exc:
            return [Completion(token, error=exc)]
        return [Completion(token, payload=payload)]

    def outstanding(self) -> int:
        return len(self._queue)


class PoolExecutor(Executor):
    """``ProcessPoolExecutor`` backend with crash recovery.

    Submissions are staged and flushed to the pool at the next ``poll``,
    so the pool is created lazily and sized to ``min(workers, staged)``
    — a two-job batch never spawns eight interpreter processes.  When a
    worker crash breaks the pool, every future that still landed a
    result is honoured, every unfinished group comes back as a
    ``worker_died`` completion, and the next flush builds a fresh pool —
    the runner's retry policy decides what gets resubmitted.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._staged: deque[tuple[int, list[RunSpec], Optional[float]]] = deque()
        self._futures: dict = {}

    def parallelism(self) -> int:
        return self.workers

    def submit(
        self, token: int, specs: Sequence[RunSpec], timeout_s: Optional[float]
    ) -> None:
        self._staged.append((token, list(specs), timeout_s))

    def _flush(self) -> None:
        if not self._staged:
            return
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, max(1, len(self._staged))),
                initializer=_worker_init,
            )
        while self._staged:
            token, specs, timeout_s = self._staged.popleft()
            if len(specs) > 1:
                fut = self._pool.submit(_execute_cohort_job, specs, timeout_s)
            else:
                fut = self._pool.submit(_execute_job, specs[0], timeout_s)
            self._futures[fut] = token

    def poll(self) -> list[Completion]:
        self._flush()
        if not self._futures:
            return []
        done, _ = wait(list(self._futures), return_when=FIRST_COMPLETED)
        completions: list[Completion] = []
        broken = False
        for fut in done:
            token = self._futures.pop(fut)
            try:
                payload = fut.result()
            except BrokenProcessPool as exc:
                completions.append(Completion(token, error=exc, worker_died=True))
                broken = True
            except Exception as exc:
                completions.append(Completion(token, error=exc))
            else:
                completions.append(Completion(token, payload=payload))
        if broken:
            # The pool died with one (unidentifiable) job to blame:
            # collect any results that did land, then surface every
            # unfinished group as a worker death; the next flush builds
            # a fresh pool for whatever the runner resubmits.
            for fut, token in list(self._futures.items()):
                if fut.done() and fut.exception() is None:
                    completions.append(Completion(token, payload=fut.result()))
                else:
                    completions.append(
                        Completion(
                            token,
                            error=BrokenProcessPool("worker process crashed"),
                            worker_died=True,
                        )
                    )
            self._futures.clear()
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=False)
        return completions

    def outstanding(self) -> int:
        return len(self._staged) + len(self._futures)

    def close(self) -> None:
        self._staged.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._futures.clear()


def make_executor(
    spec: object,
    workers: int,
    cache_root: Optional[str] = None,
) -> tuple[Executor, bool]:
    """Resolve a ``BatchRunner`` ``executor=`` argument to an instance.

    Returns ``(executor, owned)``; an executor the runner constructed
    here is *owned* (closed at the end of the run), a passed-in
    :class:`Executor` instance is not — shared backends such as a
    :class:`repro.dist.DistExecutor` over a long-lived coordinator stay
    open across runs.

    ``spec`` may be ``None`` (serial when ``workers == 1``, else a
    pool), an :class:`Executor` instance, or a string:
    ``"serial"``, ``"pool"``, or a ``tcp://host:port`` endpoint — the
    latter starts a :class:`repro.dist.Coordinator` listening there and
    waits for remote ``biglittle worker`` processes to connect.
    """
    if isinstance(spec, Executor):
        return spec, False
    if spec is None:
        if workers == 1:
            return SerialExecutor(), True
        return PoolExecutor(workers), True
    if isinstance(spec, str):
        if spec == "serial":
            return SerialExecutor(), True
        if spec == "pool":
            return PoolExecutor(workers), True
        if spec.startswith("tcp://"):
            from repro.dist import DistExecutor

            return DistExecutor.serve(spec, cache_root=cache_root), True
    raise ValueError(
        f"unknown executor {spec!r}; expected an Executor, None, "
        "'serial', 'pool', or 'tcp://host:port'"
    )
