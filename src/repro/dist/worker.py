"""The remote worker client behind ``biglittle worker --connect``.

A worker dials the coordinator, introduces itself (id + package
version), and then serves jobs until told ``bye`` or the connection
drops: decode the wire specs, execute them — a whole cohort (one fold
family) or a single spec — through the same job entry points, and so
under the same ``SIGALRM`` budgets, as the local backends
(:func:`repro.runner.executors._execute_cohort_job` and
:func:`~repro.runner.executors._execute_job`), and ship the slim
results back (scalars + RLE blobs).

Shared-store dedup, worker side: before executing, the worker consults
its **local** :class:`~repro.runner.cache.ResultCache` (same spec hash
+ version key as everywhere else).  A group whose members are all
cached returns without simulating — that is how "a spec already cached
on any worker executes exactly once" extends beyond the submitting
host.  Fresh results are stored locally, and the catalog delta the
store produced (every ``catalog.jsonl`` byte since the last ship) rides
home to the coordinator, which folds it into the shared lake catalog.

A heartbeat thread pings on the welcome-negotiated interval for the
whole session — including mid-job, which is what lets the coordinator
distinguish "slow but alive" from "dead" — with socket writes
serialized against result frames by a lock.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Optional

import repro
from repro.obs.logsetup import get_logger
from repro.runner.cache import ResultCache
from repro.runner.executors import (
    JobTimeout,
    _execute_cohort_job,
    _execute_job,
    group_label,
)
from repro.runner.spec import RunSpec, spec_from_wire
from repro.dist.protocol import (
    ProtocolError,
    encode_results,
    recv_frame,
    send_frame,
)

log = get_logger("dist.worker")


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """``"tcp://host:port"`` or ``"host:port"`` → ``(host, port)``."""
    hostport = endpoint
    if hostport.startswith("tcp://"):
        hostport = hostport[len("tcp://"):]
    host, sep, port = hostport.rpartition(":")
    if not sep or not host:
        raise ValueError(f"endpoint must be tcp://host:port, got {endpoint!r}")
    return host, int(port)


class DistWorker:
    """One worker session against one coordinator."""

    def __init__(
        self,
        endpoint: str,
        cache: Optional[ResultCache] = None,
        worker_id: Optional[str] = None,
        connect_timeout_s: float = 30.0,
    ):
        self.host, self.port = parse_endpoint(endpoint)
        self.cache = cache
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout_s = connect_timeout_s
        self.jobs_done = 0
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._conn: Optional[socket.socket] = None
        # Where the last catalog ship ended: the file's (st_dev, st_ino),
        # the byte offset, and the last line shipped, which must still
        # end at that offset for the file to be the same log.
        self._catalog_file: Optional[tuple[int, int]] = None
        self._catalog_offset = 0
        self._catalog_tail = b""

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        """Dial with retry/backoff until the coordinator answers."""
        deadline = time.monotonic() + self.connect_timeout_s
        delay = 0.05
        while True:
            try:
                return socket.create_connection(
                    (self.host, self.port), timeout=5.0
                )
            except OSError as exc:
                if time.monotonic() + delay > deadline:
                    raise ConnectionError(
                        f"could not reach coordinator at "
                        f"{self.host}:{self.port} within "
                        f"{self.connect_timeout_s:.0f}s: {exc}"
                    ) from None
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _send(self, header: dict, blob: bytes = b"") -> None:
        assert self._conn is not None
        with self._send_lock:
            send_frame(self._conn, header, blob)

    def _heartbeat_loop(self, interval_s: float) -> None:
        while not self._stop.wait(interval_s):
            try:
                self._send({"type": "ping"})
            except OSError:
                return

    def _catalog_delta(self) -> list[str]:
        """New ``catalog.jsonl`` lines since the last ship (byte offset).

        A log replaced under the offset (a rebuild, or a deleted log
        built again from the tree) is shipped whole from its start, and a
        line still being written is left for the next ship.
        """
        if self.cache is None:
            return []
        from repro.lake.catalog import Catalog

        path = Catalog(root=self.cache.root).path
        try:
            with open(path, "rb") as fh:
                st = os.fstat(fh.fileno())
                file_id = (st.st_dev, st.st_ino)
                tail = self._catalog_tail
                fh.seek(self._catalog_offset - len(tail))
                if file_id != self._catalog_file or fh.read(len(tail)) != tail:
                    self._catalog_file = file_id
                    self._catalog_offset, self._catalog_tail = 0, b""
                    fh.seek(0)
                data = fh.read()
        except OSError:
            return []
        data = data[:data.rfind(b"\n") + 1]
        if data:
            self._catalog_offset += len(data)
            self._catalog_tail = data[data.rfind(b"\n", 0, -1) + 1:]
        return [
            line for line in data.decode(errors="replace").splitlines() if line
        ]

    # -- job execution ------------------------------------------------------

    def _execute(self, specs: list[RunSpec], timeout_s: Optional[float]):
        """Run one group; returns ``(results, cache_hits)``."""
        if self.cache is not None:
            cached = [self.cache.load(spec) for spec in specs]
            if all(r is not None for r in cached):
                return cached, len(cached)
        if len(specs) > 1:
            results = _execute_cohort_job(specs, timeout_s)
        else:
            results = [_execute_job(specs[0], timeout_s)]
        if self.cache is not None:
            for spec, result in zip(specs, results):
                self.cache.store(spec, result)
        return results, 0

    def _serve_job(self, msg: dict) -> None:
        job_id = msg["job_id"]
        specs = [spec_from_wire(w) for w in msg["specs"]]
        timeout_s = msg.get("timeout_s")
        log.info("job %s: %s", job_id, group_label(specs))
        try:
            results, cache_hits = self._execute(specs, timeout_s)
            metas, blob = encode_results(results)
        except JobTimeout as exc:
            self._send({
                "type": "error", "job_id": job_id,
                "kind": "timeout", "error": str(exc),
            })
            return
        except Exception as exc:
            self._send({
                "type": "error", "job_id": job_id,
                "kind": "error", "error": repr(exc),
            })
            return
        # Ship the catalog delta *before* the result: the coordinator is
        # guaranteed to be consuming frames for this job until the result
        # lands, so the delta can never race a post-sweep shutdown.
        delta = self._catalog_delta()
        if delta:
            self._send({"type": "catalog", "lines": delta})
        self._send(
            {
                "type": "result", "job_id": job_id,
                "results": metas, "cache_hits": cache_hits,
            },
            blob,
        )
        self.jobs_done += 1

    # -- session ------------------------------------------------------------

    def run(self) -> int:
        """Serve jobs until the coordinator says ``bye``; returns jobs done."""
        conn = self._connect()
        self._conn = conn
        heartbeat: Optional[threading.Thread] = None
        try:
            conn.settimeout(30.0)
            self._send({
                "type": "hello",
                "worker_id": self.worker_id,
                "version": repro.__version__,
                "pid": os.getpid(),
                "host": socket.gethostname(),
            })
            reply, _ = recv_frame(conn)
            if reply.get("type") == "reject":
                raise ProtocolError(
                    f"coordinator rejected worker: {reply.get('reason')}"
                )
            if reply.get("type") != "welcome":
                raise ProtocolError(
                    f"expected welcome, got {reply.get('type')!r}"
                )
            # Prime the catalog delta: lines that existed before this
            # session are the coordinator's to collect via lake index
            # --merge, not ours to re-ship.
            self._catalog_delta()
            interval_s = float(reply.get("heartbeat_s") or 2.0)
            heartbeat = threading.Thread(
                target=self._heartbeat_loop, args=(interval_s,),
                name="dist-heartbeat", daemon=True,
            )
            heartbeat.start()
            conn.settimeout(None)
            log.info(
                "connected to %s:%s as %s", self.host, self.port, self.worker_id
            )
            while True:
                try:
                    msg, _ = recv_frame(conn)
                except (ConnectionError, OSError):
                    log.info("coordinator connection closed")
                    return self.jobs_done
                mtype = msg.get("type")
                if mtype == "job":
                    try:
                        self._serve_job(msg)
                    except OSError:
                        # The coordinator dropped us mid-job (e.g. its
                        # deadline fired); nobody is listening anymore.
                        log.info("connection lost while replying")
                        return self.jobs_done
                elif mtype == "bye":
                    return self.jobs_done
                # Anything else (stray pings, future extensions) is ignored.
        finally:
            self._stop.set()
            if heartbeat is not None:
                heartbeat.join(timeout=2.0)
            try:
                conn.close()
            except OSError:
                pass
            self._conn = None


def run_worker(
    endpoint: str,
    cache: Optional[ResultCache] = None,
    worker_id: Optional[str] = None,
    connect_timeout_s: float = 30.0,
) -> int:
    """Convenience wrapper: one :class:`DistWorker` session, jobs served."""
    return DistWorker(
        endpoint,
        cache=cache,
        worker_id=worker_id,
        connect_timeout_s=connect_timeout_s,
    ).run()
