"""Unit tests for the pluggable executor backends.

The :class:`~repro.runner.executors.Executor` protocol is the seam the
distributed backend plugs into; these tests pin the local halves — the
serial and process-pool backends and backend resolution in
``make_executor`` — without any sockets involved (``tests/test_dist.py``
covers the TCP side).
"""

from dataclasses import replace

import pytest

from repro.runner.batch import BatchRunner
from repro.runner.cache import ResultCache
from repro.runner.cohort import execute_cohort
from repro.runner.executors import (
    Executor,
    PoolExecutor,
    SerialExecutor,
    make_executor,
)
from repro.runner.spec import RunResult, RunSpec, execute_spec
from repro.sched.params import baseline_config

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
    # Two of these differ only in seed, so they are a cohort group but
    # no fold family: execute_cohort runs each through execute_spec.
    return RunSpec(
        "pdf-reader", seed=seed, max_seconds=0.5, trace_policy="none",
    )


def _family_spec(hold_ms: int) -> RunSpec:
    # Members differ only in the governor's hold time: one fold family.
    base = baseline_config()
    return RunSpec(
        "pdf-reader", seed=7, max_seconds=0.5, trace_policy="none",
        scheduler=replace(
            base, name=f"gov-hold-{hold_ms}",
            governor=replace(base.governor, hold_ms=hold_ms),
        ),
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
        (result,) = second[0].payload
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
        assert [r.spec_key for r in completions[1].payload] == [_spec(1).key()]
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


# ---------------------------------------------------------------------------
# One group shape: every group is a spec list, returned as a result list
# ---------------------------------------------------------------------------


def test_execute_cohort_runs_custom_kinds():
    specs = [RunSpec("w", kind=OK_KIND, seed=1), RunSpec("w", kind=OK_KIND, seed=2)]
    got = execute_cohort(specs)
    assert [r.scalars() for r in got] == [execute_spec(s).scalars() for s in specs]


def _outcomes(report):
    return (
        [r.scalars() for r in report.results],
        [(j.index, j.spec_key, j.label, j.status, j.attempts, j.error)
         for j in report.jobs],
    )


def test_mixed_batch_identical_across_backends_and_cohort_modes():
    specs = [
        _spec(1), _real_spec(1), _family_spec(60), _spec(2),
        _family_spec(70), _real_spec(2),
    ]
    reference = None
    for executor, workers in (("serial", 1), ("pool", 2)):
        for cohorts in (True, False):
            report = BatchRunner(
                workers=workers, cache=None, executor=executor, cohorts=cohorts,
            ).run(specs)
            assert report.succeeded(), (executor, cohorts)
            outcomes = _outcomes(report)
            if reference is None:
                reference = outcomes
            assert outcomes == reference, (executor, cohorts)
    assert reference[0] == [execute_spec(s).scalars() for s in specs]


class _CutPayloads(SerialExecutor):
    """A serial backend whose payloads keep only their first ``keep`` results."""

    def __init__(self, keep: int) -> None:
        super().__init__()
        self.keep = keep

    def poll(self):
        completions = super().poll()
        for comp in completions:
            if comp.payload is not None:
                comp.payload = comp.payload[: self.keep]
        return completions


def test_short_cohort_payload_falls_back_per_run(tmp_path):
    specs = [_family_spec(60), _family_spec(70)]
    cache = ResultCache(root=str(tmp_path))
    seen = []
    report = BatchRunner(
        cache=cache, cohorts=True, executor=_CutPayloads(keep=1),
        on_event=seen.append,
    ).run(specs)
    assert report.succeeded()
    assert report.n_jobs == 2
    assert [r.scalars() for r in report.results] == [
        execute_spec(s).scalars() for s in specs
    ]
    (fallback,) = [e for e in seen if e.event == "cohort_fallback"]
    assert "PayloadMismatch" in fallback.extra["error"]
    assert [cache.load(s).scalars() for s in specs] == [
        r.scalars() for r in report.results
    ]


def test_mismatched_payload_fails_the_job_and_is_never_cached(tmp_path):
    specs = [_spec(1), _spec(2)]
    cache = ResultCache(root=str(tmp_path))
    report = BatchRunner(
        cache=cache, retries=1, executor=_CutPayloads(keep=0),
    ).run(specs)
    assert report.failed_count == 2
    assert [j.attempts for j in report.jobs] == [2, 2]
    assert all("PayloadMismatch" in j.error for j in report.jobs)
    assert report.results == [None, None]
    assert [cache.load(s) for s in specs] == [None, None]
