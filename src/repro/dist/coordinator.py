"""The distributed sweep coordinator.

One :class:`Coordinator` owns a listening TCP socket and a job queue.
``biglittle worker --connect host:port`` processes dial in, are
version-matched (``repro.__version__`` equality — the spec hash +
version is the global cache/dedup key, so mixed versions must never
share work), and then *pull*: each worker handler thread pops the next
job, ships it, and waits for the result while watching heartbeats and
the job's deadline.

The unit of distribution is the runner's execution group — a single
spec or a whole cohort (one fold family).  Cohorts deliberately travel whole:
splitting a fold family across workers forfeits the witness-certified
sweep folding that makes cohorts fast (measured: a 64-variant fold
sweep runs ~5.7× faster as one cohort than as four 16-spec shards).

Global dedup: a job whose dedup key (single spec's content key, or the
hash of a cohort's member keys) is already **in flight** attaches to
the existing job as a subscriber — two runners submitting the same
sweep concurrently execute it exactly once (``dist.dedup_*`` counters).
A spec already **cached** is caught by the submitting runner's cache
check before it is submitted; that runner stores every result that
comes back, so its cache and catalog are the batch's only store and
index.  Workers keep neither.

Failure semantics:

- a worker that stops heartbeating or drops its connection mid-job is
  declared dead; the job is *requeued* (``dist.requeues``) up to
  ``max_requeues`` times without consuming the runner's retry budget,
  then surfaced as a worker-death error (the runner charges an attempt
  and applies its own retry policy);
- a worker that keeps heartbeating but blows through the job's
  coordinator-side deadline (alarm timeouts cannot fire off the main
  thread, and a wedged interpreter cannot fire them at all) gets its
  connection closed and the job fails as a :class:`JobTimeout`
  (``dist.worker_timeouts``) — deliberately *not* requeued, because the
  job itself is the prime suspect;
- a worker that sends a frame the protocol does not expect mid-job is
  dropped like a lost one and its job requeued.
"""

from __future__ import annotations

import hashlib
import select
import socket
import threading
import time
from collections import deque
from typing import Callable, Optional, Sequence

import repro
from repro.obs.logsetup import get_logger
from repro.obs.metrics import global_metrics
from repro.runner.executors import JobTimeout
from repro.runner.spec import RunResult, RunSpec, spec_to_wire
from repro.dist.protocol import (
    ProtocolError,
    decode_results,
    recv_frame,
    send_frame,
)

log = get_logger("dist.coordinator")

#: ``callback(payload, error, worker_died)`` — ``payload`` is the job's
#: result list on success, else ``None``.
JobCallback = Callable[[Optional[list[RunResult]], Optional[BaseException], bool], None]


class DistJobError(Exception):
    """A remote worker reported a job failure."""


class WorkerDied(Exception):
    """The worker executing a job vanished and the requeue budget ran out."""


class _WorkerLost(Exception):
    """Internal: this handler's connection is gone."""


def job_key(specs: Sequence[RunSpec]) -> str:
    """The global dedup key of one execution group.

    A single spec dedups by its content key (+ the coordinator-enforced
    package version); a cohort by the hash of its member keys — the
    group executes as one unit, so identity is the ordered member list.
    """
    if len(specs) == 1:
        return specs[0].key()
    joined = "+".join(s.key() for s in specs)
    return "cohort:" + hashlib.sha256(joined.encode()).hexdigest()[:24]


class _DistJob:
    __slots__ = (
        "job_id", "key", "specs", "wire_specs", "timeout_s",
        "callbacks", "state", "worker_id", "requeues",
    )

    def __init__(self, job_id, key, specs, timeout_s, callback):
        self.job_id = job_id
        self.key = key
        self.specs = specs
        self.wire_specs = [spec_to_wire(s) for s in specs]
        self.timeout_s = timeout_s
        self.callbacks: list[JobCallback] = [callback]
        self.state = "pending"
        self.worker_id: Optional[str] = None
        self.requeues = 0


class _WorkerState:
    __slots__ = ("worker_id", "conn", "addr", "last_seen", "jobs_done")

    def __init__(self, worker_id, conn, addr):
        self.worker_id = worker_id
        self.conn = conn
        self.addr = addr
        self.last_seen = time.monotonic()
        self.jobs_done = 0


class Coordinator:
    """TCP job server sharding execution groups across remote workers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_s: float = 2.0,
        job_grace_s: float = 15.0,
        max_requeues: int = 2,
    ):
        self.host = host
        self.port = port
        self.heartbeat_s = heartbeat_s
        #: Slack added to a job's worker-side alarm budget before the
        #: coordinator declares the worker wedged.
        self.job_grace_s = job_grace_s
        self.max_requeues = max_requeues
        self.counters: dict[str, int] = {}
        self._cv = threading.Condition()
        self._pending: deque[_DistJob] = deque()
        self._inflight: dict[str, _DistJob] = {}
        self._workers: dict[str, _WorkerState] = {}
        self._job_seq = 0
        self._closed = False
        self._listener: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Coordinator":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.port = listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="dist-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        log.info("coordinator listening on %s", self.endpoint)
        return self

    @property
    def endpoint(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    @property
    def worker_count(self) -> int:
        with self._cv:
            return len(self._workers)

    def wait_for_workers(self, n: int, timeout_s: float = 30.0) -> int:
        """Block until ``n`` workers are connected (or timeout); returns count."""
        deadline = time.monotonic() + timeout_s
        with self._cv:
            while len(self._workers) < n:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(timeout=min(remaining, 0.25))
            return len(self._workers)

    def shutdown(self) -> None:
        """Stop accepting, fail queued jobs, tell idle workers to leave."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            orphans = list(self._pending) + [
                j for j in self._inflight.values() if j.state == "running"
            ]
            self._pending.clear()
            self._inflight.clear()
            self._cv.notify_all()
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
        for job in orphans:
            self._complete(job, error=RuntimeError("coordinator shut down"))
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        specs: Sequence[RunSpec],
        timeout_s: Optional[float],
        callback: JobCallback,
    ) -> int:
        """Enqueue one execution group; dedups against in-flight jobs.

        Returns the job id.  ``callback`` fires exactly once, off the
        submitting thread, with the result list or the error.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("empty job")
        key = job_key(specs)
        with self._cv:
            if self._closed:
                raise RuntimeError("coordinator is shut down")
            job = self._inflight.get(key)
            if job is not None:
                job.callbacks.append(callback)
                self._count("dist.dedup_jobs", 1)
                self._count("dist.dedup_specs", len(specs))
                return job.job_id
            self._job_seq += 1
            job = _DistJob(self._job_seq, key, specs, timeout_s, callback)
            self._inflight[key] = job
            self._pending.append(job)
            self._count("dist.jobs", 1)
            self._count("dist.specs", len(specs))
            self._cv.notify_all()
            return job.job_id

    # -- internals ----------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        global_metrics().counter(name).inc(value)

    def _fire(
        self,
        job: _DistJob,
        payload: Optional[list[RunResult]],
        error: Optional[BaseException],
        worker_died: bool,
    ) -> None:
        """Deliver a job outcome to every subscriber (outside the lock)."""
        for callback in job.callbacks:
            try:
                callback(payload, error, worker_died)
            except Exception:  # pragma: no cover - subscriber bug
                log.exception("dist job callback failed for job %d", job.job_id)
        job.callbacks = []

    def _complete(
        self,
        job: _DistJob,
        payload: Optional[list[RunResult]] = None,
        error: Optional[BaseException] = None,
        worker_died: bool = False,
    ) -> None:
        with self._cv:
            if job.state == "done":
                return
            job.state = "done"
            self._inflight.pop(job.key, None)
        if error is None:
            self._count("dist.jobs_executed", 1)
            self._count("dist.specs_executed", len(job.specs))
        self._fire(job, payload, error, worker_died)

    def _requeue_or_fail(self, job: _DistJob, reason: str) -> None:
        """The worker running ``job`` died; put the job back or give up."""
        with self._cv:
            if job.state == "done":
                return
            job.requeues += 1
            requeue = job.requeues <= self.max_requeues and not self._closed
            if requeue:
                self._count("dist.requeues", 1)
                job.state = "pending"
                job.worker_id = None
                self._pending.append(job)
                self._cv.notify_all()
        log.warning(
            "job %d %s after %d lost worker(s): %s", job.job_id,
            "requeued" if requeue else "abandoned", job.requeues, reason,
        )
        if not requeue:
            self._complete(
                job,
                error=WorkerDied(
                    f"job {job.job_id} lost {job.requeues} workers ({reason})"
                ),
                worker_died=True,
            )

    # -- worker side --------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None:
            try:
                conn, addr = listener.accept()
            except OSError:
                return  # listener closed by shutdown
            handler = threading.Thread(
                target=self._serve_worker, args=(conn, addr),
                name=f"dist-worker-{addr[1]}", daemon=True,
            )
            handler.start()
            self._threads.append(handler)

    def _serve_worker(self, conn: socket.socket, addr) -> None:
        worker: Optional[_WorkerState] = None
        try:
            conn.settimeout(max(self.heartbeat_s * 5, 10.0))
            hello, _ = recv_frame(conn)
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected hello, got {hello.get('type')!r}")
            if hello.get("version") != repro.__version__:
                send_frame(conn, {
                    "type": "reject",
                    "reason": (
                        f"version mismatch: coordinator {repro.__version__}, "
                        f"worker {hello.get('version')}"
                    ),
                })
                self._count("dist.workers_rejected", 1)
                return
            worker_id = str(hello.get("worker_id") or f"{addr[0]}:{addr[1]}")
            with self._cv:
                if self._closed:
                    send_frame(conn, {"type": "reject", "reason": "shutting down"})
                    return
                if worker_id in self._workers:
                    worker_id = f"{worker_id}#{addr[1]}"
                worker = _WorkerState(worker_id, conn, addr)
                self._workers[worker_id] = worker
                self._cv.notify_all()
            send_frame(conn, {"type": "welcome", "heartbeat_s": self.heartbeat_s})
            self._count("dist.workers_connected", 1)
            log.info("worker %s joined from %s:%s", worker_id, *addr[:2])
            self._worker_loop(worker)
        except (ConnectionError, OSError, ProtocolError, _WorkerLost) as exc:
            if worker is not None:
                log.warning("worker %s lost: %s", worker.worker_id, exc)
        finally:
            if worker is not None:
                self._drop_worker(worker)
            try:
                conn.close()
            except OSError:
                pass

    def _drop_worker(self, worker: _WorkerState) -> None:
        """Unregister ``worker`` and count its disconnect, once.

        A worker lost mid-job is dropped before its job is requeued, so
        anyone who sees the requeued job finish also sees the disconnect.
        """
        with self._cv:
            if self._workers.get(worker.worker_id) is not worker:
                return
            del self._workers[worker.worker_id]
            self._cv.notify_all()
        self._count("dist.workers_disconnected", 1)
        log.info("worker %s dropped", worker.worker_id)

    def _worker_loop(self, worker: _WorkerState) -> None:
        while True:
            job = self._next_job(worker)
            if job is None:
                try:
                    send_frame(worker.conn, {"type": "bye"})
                except OSError:
                    pass
                return
            try:
                self._dispatch(worker, job)
            except _WorkerLost as exc:
                self._drop_worker(worker)
                self._requeue_or_fail(job, str(exc) or "connection lost")
                raise
            except ProtocolError as exc:
                # A worker speaking garbage mid-job is as good as lost,
                # but the job itself may be fine on another worker.
                self._drop_worker(worker)
                self._requeue_or_fail(job, f"protocol error: {exc}")
                raise _WorkerLost(str(exc)) from None
            except Exception as exc:  # pragma: no cover - coordinator bug
                # Whatever went wrong on our side, the job must not be
                # stranded: give it back to the queue and drop this
                # worker connection.
                log.exception("dispatch failed for job %d", job.job_id)
                self._drop_worker(worker)
                self._requeue_or_fail(job, f"dispatch error: {exc!r}")
                raise _WorkerLost(repr(exc)) from exc

    def _next_job(self, worker: _WorkerState) -> Optional[_DistJob]:
        """Pop the next pending job; drain idle-worker traffic meanwhile."""
        while True:
            with self._cv:
                if self._closed:
                    return None
                if self._pending:
                    job = self._pending.popleft()
                    job.state = "running"
                    job.worker_id = worker.worker_id
                    return job
                self._cv.wait(timeout=0.2)
            # While idle, consume heartbeats and catch disconnects so a
            # worker that died between jobs is unregistered promptly.
            readable, _, _ = select.select([worker.conn], [], [], 0)
            if readable:
                self._consume(worker)

    def _consume(self, worker: _WorkerState) -> tuple[dict, bytes]:
        """Read one frame from the worker and note it as a sign of life."""
        try:
            msg, blob = recv_frame(worker.conn)
        except (ConnectionError, OSError) as exc:
            raise _WorkerLost(str(exc)) from None
        worker.last_seen = time.monotonic()
        self._count("dist.bytes_in", int(msg.get("_nbytes") or 0))
        return msg, blob

    def _dispatch(self, worker: _WorkerState, job: _DistJob) -> None:
        """Ship one job to ``worker`` and see it through to an outcome."""
        header = {
            "type": "job",
            "job_id": job.job_id,
            "timeout_s": job.timeout_s,
            "specs": job.wire_specs,
        }
        try:
            sent = send_frame(worker.conn, header)
        except OSError as exc:
            raise _WorkerLost(str(exc)) from None
        self._count("dist.bytes_out", sent)
        budget = (
            job.timeout_s * len(job.specs) + self.job_grace_s
            if job.timeout_s
            else None
        )
        deadline = time.monotonic() + budget if budget else None
        heartbeat_limit = max(self.heartbeat_s * 4, 2.0)
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                self._count("dist.worker_timeouts", 1)
                log.warning(
                    "job %d passed its deadline on worker %s",
                    job.job_id, worker.worker_id,
                )
                self._complete(
                    job,
                    error=JobTimeout(
                        f"job {job.job_id} exceeded its {budget:.1f}s deadline "
                        f"on worker {worker.worker_id}"
                    ),
                )
                # The worker is wedged mid-job; drop the connection so it
                # cannot poison the queue with a stale result later.
                raise _WorkerLost("job deadline exceeded")
            if now - worker.last_seen > heartbeat_limit:
                raise _WorkerLost(
                    f"no heartbeat for {now - worker.last_seen:.1f}s"
                )
            wait_s = self.heartbeat_s
            if deadline is not None:
                wait_s = min(wait_s, deadline - now)
            readable, _, _ = select.select([worker.conn], [], [], max(wait_s, 0.05))
            if not readable:
                continue
            msg, blob = self._consume(worker)
            mtype = msg["type"]
            if mtype == "ping":
                continue
            if mtype == "result":
                if msg.get("job_id") != job.job_id:
                    raise ProtocolError(
                        f"result for job {msg.get('job_id')} while "
                        f"{job.job_id} was outstanding"
                    )
                results = decode_results(msg["results"], blob)
                expected = [s.key() for s in job.specs]
                got = [r.spec_key for r in results]
                if got != expected:
                    self._complete(
                        job,
                        error=DistJobError(
                            f"worker {worker.worker_id} returned keys {got} "
                            f"for job expecting {expected} (codec drift?)"
                        ),
                    )
                else:
                    self._complete(job, payload=results)
                worker.jobs_done += 1
                return
            if mtype == "error":
                detail = msg.get("error") or "remote failure"
                if msg.get("kind") == "timeout":
                    error: BaseException = JobTimeout(detail)
                else:
                    error = DistJobError(detail)
                self._complete(job, error=error)
                return
            raise ProtocolError(f"unexpected message {mtype!r} mid-job")

    def stats(self) -> dict[str, int]:
        """Snapshot of the coordinator's counters."""
        with self._cv:
            return dict(self.counters)
