"""Structured progress events for batch runs.

The :class:`BatchRunner` narrates a run as a stream of
:class:`RunnerEvent` records: one ``batch_start``, one per-job event
for every cache hit / completion / retry / failure, and one
``batch_done`` carrying the aggregate counters.  Consumers attach a
callback (progress bars, tests) and/or a JSONL run-log path (offline
analysis — each line is one event).
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

log = logging.getLogger("repro.runner.events")


@dataclass
class RunnerEvent:
    """One progress record.

    ``event`` is one of ``batch_start``, ``cache_hit``, ``job_done``,
    ``job_retry``, ``job_failed``, ``cohort_start``, ``cohort_fallback``,
    ``batch_done``.  Distributed runs add no event kinds: the
    coordinator logs worker joins and losses, requeues and deadlines
    through its ``repro.dist.coordinator`` logger and counts them in
    the ``dist.*`` metrics (see :class:`repro.dist.Coordinator`).
    ``t_s`` is seconds since the batch started; per-job fields are
    ``None`` on batch-level events.  ``batch_start.extra`` names the
    executor backend that ran the batch.
    """

    event: str
    t_s: float
    index: Optional[int] = None
    spec_key: Optional[str] = None
    label: Optional[str] = None
    status: Optional[str] = None
    attempt: Optional[int] = None
    duration_s: Optional[float] = None
    error: Optional[str] = None
    extra: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        # Drop unset fields by identity/emptiness, not by ``in (None, {})``
        # equality — that form compares every value against {} via __eq__
        # (misfiring on empty-mapping-like extras and on objects whose
        # __eq__ is non-boolean); only ``extra`` may be elided, and only
        # when actually empty.
        payload = {
            k: v
            for k, v in asdict(self).items()
            if v is not None and not (k == "extra" and not v)
        }
        return json.dumps(payload, sort_keys=True)


EventCallback = Callable[[RunnerEvent], None]


class EventSink:
    """Fans events out to an optional callback and an optional JSONL log."""

    def __init__(
        self,
        callback: Optional[EventCallback] = None,
        log_path: Optional[str] = None,
    ):
        self._callback = callback
        self._log_path = log_path
        self._log_file = None
        self._t0 = time.monotonic()

    def __enter__(self) -> "EventSink":
        if self._log_path:
            self._log_file = open(self._log_path, "a")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._log_file is not None:
            self._log_file.close()
            self._log_file = None

    def elapsed_s(self) -> float:
        return time.monotonic() - self._t0

    def emit(self, event: str, **fields: Any) -> RunnerEvent:
        record = RunnerEvent(event=event, t_s=round(self.elapsed_s(), 6), **fields)
        if self._callback is not None:
            # A broken progress bar must not take the batch down with it,
            # nor suppress the JSONL log line for this event.
            try:
                self._callback(record)
            except Exception:
                log.exception("event callback failed for %r", record.event)
        if self._log_file is not None:
            self._log_file.write(record.to_json() + "\n")
            self._log_file.flush()
        return record
