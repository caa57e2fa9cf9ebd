"""``repro.dist`` — distributed sweep execution over TCP workers.

A :class:`Coordinator` shards a sweep's execution groups across
``biglittle worker`` processes over a length-prefixed JSON+blob
protocol, with heartbeats, per-job deadlines, worker-death requeue, and
dedup of in-flight jobs keyed by spec content hash +
``repro.__version__``.  Workers keep no state: the submitting runner's
cache is the batch's only store, and its catalog the only index.

Quickstart (two shells)::

    # shell 1 — the sweep, coordinating on port 5555
    biglittle sweep params --apps pdf-reader \\
        --executor tcp://0.0.0.0:5555

    # shell 2..N — workers, local or on other hosts
    biglittle worker --connect tcp://HOST:5555

Programmatic: share one coordinator across runners so identical
concurrent submissions execute once::

    from repro.dist import Coordinator, DistExecutor
    from repro.runner import BatchRunner

    with Coordinator().start() as coord:
        coord.wait_for_workers(4)
        report = BatchRunner(
            cache=cache, cohorts=True, executor=DistExecutor(coord)
        ).run(specs)
"""

from repro.dist.coordinator import (
    Coordinator,
    DistJobError,
    WorkerDied,
    job_key,
)
from repro.dist.executor import DistExecutor
from repro.dist.protocol import (
    ProtocolError,
    decode_results,
    encode_results,
    recv_frame,
    send_frame,
)
from repro.dist.worker import DistWorker, parse_endpoint, run_worker

__all__ = [
    "Coordinator",
    "DistExecutor",
    "DistJobError",
    "DistWorker",
    "ProtocolError",
    "WorkerDied",
    "decode_results",
    "encode_results",
    "job_key",
    "parse_endpoint",
    "recv_frame",
    "run_worker",
    "send_frame",
]
