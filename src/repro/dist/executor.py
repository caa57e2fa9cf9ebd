"""The runner-facing executor over a :class:`~repro.dist.coordinator.Coordinator`.

One :class:`DistExecutor` adapts one runner's ``submit``/``poll`` loop
onto a coordinator's callback-based job queue.  Several executors may
share one coordinator — that is precisely what makes concurrent
duplicate submissions dedup globally: both runners' identical groups
resolve to one in-flight coordinator job, and both receive the single
execution's results.
"""

from __future__ import annotations

import queue
from typing import Optional, Sequence

from repro.runner.executors import Completion, Executor
from repro.runner.spec import RunSpec
from repro.dist.coordinator import Coordinator


class DistExecutor(Executor):
    """Distributed backend: groups execute on remote TCP workers.

    ``transported`` results arrive re-decoded from the wire (RLE traces
    as :class:`~repro.sim.traceio.LazyTrace`, or no trace at all), so
    the runner's transport accounting and caching behave exactly as for
    the process-pool backend.
    """

    transported = True

    def __init__(self, coordinator: Coordinator, own: bool = False):
        self.coordinator = coordinator
        self._own = own
        self._completions: "queue.Queue[Completion]" = queue.Queue()
        self._outstanding = 0

    @classmethod
    def serve(cls, endpoint: str, **coordinator_kwargs) -> "DistExecutor":
        """Start a coordinator at ``tcp://host:port`` and own it.

        The returned executor closes the coordinator when the runner is
        done with it — the one-runner CLI path
        (``biglittle sweep --executor tcp://0.0.0.0:5555``).
        """
        from repro.dist.worker import parse_endpoint

        host, port = parse_endpoint(endpoint)
        coordinator = Coordinator(host=host, port=port, **coordinator_kwargs)
        coordinator.start()
        return cls(coordinator, own=True)

    def parallelism(self) -> int:
        return max(1, self.coordinator.worker_count)

    def submit(
        self, token: int, specs: Sequence[RunSpec], timeout_s: Optional[float]
    ) -> None:
        def _on_done(payload, error, worker_died) -> None:
            self._completions.put(
                Completion(
                    token, payload=payload, error=error, worker_died=worker_died
                )
            )

        self._outstanding += 1
        try:
            self.coordinator.submit(specs, timeout_s, _on_done)
        except Exception:
            self._outstanding -= 1
            raise

    def poll(self) -> list[Completion]:
        if not self._outstanding:
            return []
        completions = [self._completions.get()]
        while True:
            try:
                completions.append(self._completions.get_nowait())
            except queue.Empty:
                break
        self._outstanding -= len(completions)
        return completions

    def outstanding(self) -> int:
        return self._outstanding

    def close(self) -> None:
        if self._own:
            self.coordinator.shutdown()
