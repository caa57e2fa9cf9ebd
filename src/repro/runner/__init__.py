"""``repro.runner`` — parallel, cached, fault-tolerant experiment orchestration.

The single execution path for every multi-run experiment:

- :class:`RunSpec` describes one simulation (workload + chip/core config
  + scheduler params + seed + cap) and hashes stably;
- :class:`BatchRunner` shards specs across worker processes (or runs
  them inline), retries crashes and timeouts, and returns results in
  deterministic spec order inside a :class:`BatchReport`;
- :class:`ResultCache` persists results content-addressed by spec hash
  and package version, so re-running an unchanged sweep executes zero
  simulations.

Quickstart::

    from repro.runner import BatchRunner, RunSpec

    specs = [RunSpec("bbench", core_config=c, seed=7)
             for c in ("L4+B4", "L2+B1", "L4")]
    report = BatchRunner(workers=4, cache=True).run(specs)
    for spec, result in zip(specs, report.results):
        print(spec.label(), result.performance_value(), result.avg_power_mw)
"""

from repro.runner.batch import (
    STATUS_CACHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    BatchReport,
    BatchRunner,
    JobRecord,
    JobTimeout,
)
from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.events import EventSink, RunnerEvent
from repro.runner.executors import (
    Completion,
    Executor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runner.spec import (
    DEFAULT_CHIP_ID,
    RunResult,
    RunSpec,
    execute_spec,
    register_chip,
    resolve_chip,
    resolve_kind,
)

__all__ = [
    "BatchReport",
    "BatchRunner",
    "CACHE_DIR_ENV",
    "Completion",
    "DEFAULT_CHIP_ID",
    "EventSink",
    "Executor",
    "JobRecord",
    "JobTimeout",
    "PoolExecutor",
    "SerialExecutor",
    "make_executor",
    "ResultCache",
    "RunResult",
    "RunSpec",
    "RunnerEvent",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_TIMEOUT",
    "default_cache_dir",
    "execute_spec",
    "register_chip",
    "resolve_chip",
    "resolve_kind",
]
