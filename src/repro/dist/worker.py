"""The remote worker client behind ``biglittle worker --connect``.

A worker dials the coordinator, introduces itself (id + package
version), and then serves jobs until told ``bye`` or the connection
drops: decode the wire specs of one group — a whole cohort (one fold
family) or a single spec, always a list — execute it through the same
entry point, and so under the same ``SIGALRM`` budget, as the local
backends (:func:`repro.runner.executors._execute_group`), and ship the
slim results back (scalars + RLE blobs), one per spec.

A worker is stateless: it keeps no cache and writes no catalog.  The
submitting runner checks its own cache before it submits and stores
every result that comes back, so its cache is the one store, and its
catalog the one index, of a distributed batch.

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
from repro.runner.executors import JobTimeout, _execute_group, group_label
from repro.runner.spec import spec_from_wire
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
        worker_id: Optional[str] = None,
        connect_timeout_s: float = 30.0,
    ):
        self.host, self.port = parse_endpoint(endpoint)
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout_s = connect_timeout_s
        self.jobs_done = 0
        self._send_lock = threading.Lock()
        self._stop = threading.Event()
        self._conn: Optional[socket.socket] = None

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

    # -- job execution ------------------------------------------------------

    def _serve_job(self, msg: dict) -> None:
        job_id = msg["job_id"]
        specs = [spec_from_wire(w) for w in msg["specs"]]
        timeout_s = msg.get("timeout_s")
        log.info("job %s: %s", job_id, group_label(specs))
        try:
            metas, blob = encode_results(_execute_group(specs, timeout_s))
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
        self._send(
            {"type": "result", "job_id": job_id, "results": metas}, blob
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
    worker_id: Optional[str] = None,
    connect_timeout_s: float = 30.0,
) -> int:
    """Convenience wrapper: one :class:`DistWorker` session, jobs served."""
    return DistWorker(
        endpoint, worker_id=worker_id, connect_timeout_s=connect_timeout_s
    ).run()
