"""Unit tests for the pluggable executor backends.

The :class:`~repro.runner.executors.Executor` protocol is the seam the
distributed backend plugs into; these tests pin the local halves — the
serial and process-pool backends and backend resolution in
``make_executor`` — without any sockets involved (``tests/test_dist.py``
covers the TCP side).
"""

import pytest

from repro.runner.batch import BatchRunner
from repro.runner.executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runner.spec import RunResult, RunSpec

OK_KIND = f"{__name__}:_ok_kind"
RAISE_KIND = f"{__name__}:_always_raise_kind"


def _ok_kind(spec: RunSpec) -> RunResult:
    return RunResult(
        spec_key=spec.key(), workload=spec.workload, metric="fps",
        duration_s=0.01, avg_power_mw=100.0, energy_mj=1.0, avg_fps=60.0,
    )


def _always_raise_kind(spec: RunSpec) -> RunResult:
    raise ValueError(f"injected failure for {spec.workload}")


def _spec(seed: int) -> RunSpec:
    return RunSpec("w", kind=OK_KIND, seed=seed, max_seconds=1.0)


def _real_spec(seed: int) -> RunSpec:
    # Cohort groups go through execute_cohort, which builds real apps —
    # dotted-path fault kinds don't apply there.
    return RunSpec(
        "pdf-reader", seed=seed, max_seconds=0.5, trace_policy="none",
    )


def _drain(executor: Executor, n: int):
    completions = []
    while len(completions) < n:
        got = executor.poll()
        assert got, "poll returned nothing with work outstanding"
        completions.extend(got)
    return completions


# ---------------------------------------------------------------------------
# SerialExecutor
# ---------------------------------------------------------------------------


def test_serial_executor_fifo_and_untransported():
    with SerialExecutor() as ex:
        assert ex.transported is False
        assert ex.parallelism() == 1
        ex.submit(1, [_spec(1)], None)
        ex.submit(2, [_spec(2)], None)
        assert ex.outstanding() == 2
        first = ex.poll()
        assert [c.token for c in first] == [1]
        second = ex.poll()
        assert [c.token for c in second] == [2]
        assert ex.outstanding() == 0
        assert ex.poll() == []
        result = second[0].payload
        assert isinstance(result, RunResult) and result.avg_fps == 60.0


def test_serial_executor_cohort_payload_is_list():
    with SerialExecutor() as ex:
        ex.submit(7, [_real_spec(1), _real_spec(2)], None)
        (comp,) = _drain(ex, 1)
        assert comp.error is None
        assert [r.spec_key for r in comp.payload] == [
            _real_spec(1).key(), _real_spec(2).key(),
        ]


def test_serial_executor_captures_errors():
    bad = RunSpec("w", kind=RAISE_KIND, max_seconds=1.0)
    with SerialExecutor() as ex:
        ex.submit(3, [bad], None)
        (comp,) = _drain(ex, 1)
        assert comp.payload is None
        assert isinstance(comp.error, ValueError)
        assert comp.worker_died is False


# ---------------------------------------------------------------------------
# PoolExecutor
# ---------------------------------------------------------------------------


def test_pool_executor_runs_groups():
    with PoolExecutor(workers=2) as ex:
        assert ex.transported is True
        assert ex.parallelism() == 2
        ex.submit(1, [_spec(1)], None)
        ex.submit(2, [_real_spec(2), _real_spec(3)], None)
        completions = {c.token: c for c in _drain(ex, 2)}
        assert completions[1].error is None
        assert completions[1].payload.spec_key == _spec(1).key()
        assert [r.spec_key for r in completions[2].payload] == [
            _real_spec(2).key(), _real_spec(3).key(),
        ]


# ---------------------------------------------------------------------------
# make_executor resolution
# ---------------------------------------------------------------------------


def test_make_executor_resolution():
    ex, owned = make_executor(None, workers=1)
    assert isinstance(ex, SerialExecutor) and owned

    ex, owned = make_executor(None, workers=4)
    assert isinstance(ex, PoolExecutor) and owned
    assert ex.parallelism() == 4
    ex.close()

    ex, owned = make_executor("serial", workers=4)
    assert isinstance(ex, SerialExecutor) and owned

    ex, owned = make_executor("pool", workers=1)
    assert isinstance(ex, PoolExecutor) and owned
    ex.close()

    shared = SerialExecutor()
    ex, owned = make_executor(shared, workers=4)
    assert ex is shared and not owned

    with pytest.raises(ValueError):
        make_executor("carrier-pigeon", workers=1)


def test_runner_accepts_executor_instance_and_does_not_close_it():
    shared = SerialExecutor()
    runner = BatchRunner(cache=None, executor=shared)
    report = runner.run([_spec(1), _spec(2)])
    assert report.succeeded()
    # Shared executors stay usable — that is what lets two runners share
    # one coordinator for global dedup.
    report2 = BatchRunner(cache=None, executor=shared).run([_spec(3)])
    assert report2.succeeded()
