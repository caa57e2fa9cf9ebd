"""Trace policies through the batch runner: transport, metrics, SIGALRM."""

from __future__ import annotations

import pickle
import signal
import time

import numpy as np
import pytest

from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.runner.batch import BatchRunner, JobTimeout
from repro.runner.cache import ResultCache
from repro.runner.executors import _alarmed, _execute_group
from repro.runner.spec import RunSpec, execute_spec, finalize_result, resolve_kind
from repro.sim.traceio import LazyTrace


APP = "video-player"
SECONDS = 2.0
REDUCTIONS = ("tlp", "power_summary")


def spec_for(policy: str, **overrides) -> RunSpec:
    kwargs = dict(
        seed=3, max_seconds=SECONDS, reductions=REDUCTIONS, trace_policy=policy,
    )
    kwargs.update(overrides)
    return RunSpec(APP, **kwargs)


def dense_result(spec: RunSpec):
    """The spec's reductions with the unfinalized dense trace — what the
    retired ``"full"`` policy shipped."""
    unfinalized = resolve_kind(spec.kind)(spec)
    trace = unfinalized.trace
    result = finalize_result(spec, unfinalized)
    result.trace = trace
    return result


@pytest.fixture(scope="module")
def dense():
    return dense_result(spec_for("rle"))


def assert_trace_matches(trace, reference) -> None:
    from repro.platform.coretypes import CoreType

    assert len(trace) == len(reference)
    np.testing.assert_array_equal(trace.busy, reference.busy)
    np.testing.assert_array_equal(trace.power_mw, reference.power_mw)
    for ct in (CoreType.LITTLE, CoreType.BIG):
        np.testing.assert_array_equal(trace.freq_khz(ct), reference.freq_khz(ct))


# -- policy semantics at the execute_spec level ------------------------------


def test_policy_none_drops_trace_keeps_reductions(dense):
    result = execute_spec(spec_for("none"))
    assert result.trace is None
    assert result.transport_nbytes() == 0
    assert result.reduction("tlp") == dense.reduction("tlp")
    assert result.reduction("power_summary") == dense.reduction(
        "power_summary"
    )


def test_policy_rle_is_lazy_and_bit_exact(dense):
    result = execute_spec(spec_for("rle"))
    assert isinstance(result.trace, LazyTrace)
    assert not result.trace.inflated
    assert 0 < result.transport_nbytes() < dense.trace.nbytes
    assert_trace_matches(result.trace.materialize(), dense.trace)


def test_unknown_trace_policy_rejected():
    for policy in ("shm", "full"):
        with pytest.raises(ValueError, match="valid: rle, none$"):
            RunSpec("bbench", trace_policy=policy)


# -- batch runner: serial and parallel, with transport accounting ------------


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_policies_bit_identical(tmp_path, workers):
    reset_global_metrics()
    runner = BatchRunner(
        workers=workers, cache=ResultCache(root=tmp_path / f"c{workers}")
    )
    report = runner.run([spec_for("rle", seed=4), spec_for("none", seed=4)])
    report.raise_on_failure()
    rle, none = report.results
    dense = dense_result(spec_for("rle", seed=4))

    assert_trace_matches(rle.trace, dense.trace)
    assert none.trace is None
    for result in (rle, none):
        assert result.reduction("tlp") == dense.reduction("tlp")

    if workers > 1:
        # rle crosses the pool with a payload; none is free.
        assert report.transport_bytes > 0
        snap = global_metrics().snapshot()
        assert snap.counter("runner.transport.results") == 2
        assert snap.counter("runner.transport.bytes") == report.transport_bytes
    else:
        assert report.transport_bytes == 0


def test_rle_cache_roundtrip_stays_lazy(tmp_path):
    cache = ResultCache(root=tmp_path / "cache")
    spec = spec_for("rle", seed=6)
    runner = BatchRunner(workers=1, cache=cache)
    cold = runner.run([spec])
    cold.raise_on_failure()
    assert cache.stats.misses == 1 and cache.stats.entries_written == 1

    warm = runner.run([spec])
    warm.raise_on_failure()
    assert cache.stats.hits == 1
    cached = warm.results[0]
    assert isinstance(cached.trace, LazyTrace)
    assert not cached.trace.inflated  # hit-load never inflates eagerly
    assert_trace_matches(
        cached.trace.materialize(), cold.results[0].trace.materialize()
    )
    assert cached.reduction("tlp") == cold.results[0].reduction("tlp")


def test_reduced_policies_ship_far_fewer_bytes():
    """Reducing at the source shrinks what a result pickles to.

    Sixteen idle-heavy 120 s runs: unreduced, every dense trace would
    ship and the parent reduce it (the unfinalized result); under
    ``rle`` and ``none`` the five reductions run at the source and ship
    with an RLE trace or none.
    """
    reductions = ("tlp", "tlp_matrix", "residency", "efficiency", "power_summary")

    def pickled_bytes(run, policy, reductions=reductions):
        return sum(
            len(pickle.dumps(run(RunSpec(
                "idle-heavy", kind="repro.runner.benchkinds:run_idle_heavy",
                seed=seed, max_seconds=120.0, trace_policy=policy,
                reductions=reductions,
            ))))
            for seed in range(16)
        )

    dense = pickled_bytes(lambda spec: resolve_kind(spec.kind)(spec), "rle", ())
    assert dense / pickled_bytes(execute_spec, "rle") >= 150
    assert dense / pickled_bytes(execute_spec, "none") >= 1500


# -- SIGALRM hygiene (regression: handler leak / dangling itimer) ------------


requires_sigalrm = pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs SIGALRM"
)


@pytest.fixture()
def sentinel_handler():
    """Install a recognisable handler so restoration is observable."""
    def sentinel(signum, frame):  # pragma: no cover
        raise AssertionError("sentinel alarm fired")

    previous = signal.signal(signal.SIGALRM, sentinel)
    yield sentinel
    signal.signal(signal.SIGALRM, previous)
    signal.setitimer(signal.ITIMER_REAL, 0.0)


def assert_alarm_state_clean(sentinel) -> None:
    assert signal.getsignal(signal.SIGALRM) is sentinel
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@requires_sigalrm
def test_alarm_restored_after_success(sentinel_handler):
    result = _execute_group([spec_for("none")], timeout_s=60.0)[0]
    assert result.reductions
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_alarm_restored_after_job_exception(sentinel_handler):
    bad = RunSpec(
        APP, seed=3, max_seconds=SECONDS,
        reductions=("no-such-reduction",), trace_policy="none",
    )
    with pytest.raises(KeyError):
        _execute_group([bad], timeout_s=60.0)[0]
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_alarm_restored_after_timeout(sentinel_handler):
    with pytest.raises(JobTimeout):
        _execute_group([spec_for("rle", max_seconds=60.0)], timeout_s=0.05)[0]
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_swallowed_timeout_is_raised_again(sentinel_handler):
    """A job that never sees the first JobTimeout is still stopped.

    The interpreter can swallow the handler's raise (as "unraisable"
    inside a ``gc`` callback); catching it in the job stands in for
    that.  The job would otherwise spin to its own 10 s deadline.
    """
    caught = []

    def job():
        deadline = time.monotonic() + 10.0
        try:
            while time.monotonic() < deadline:
                pass
        except JobTimeout as exc:
            caught.append(exc)
        while time.monotonic() < deadline:
            pass
        return "finished"

    start = time.monotonic()
    with pytest.raises(JobTimeout):
        _alarmed(job, 0.05, "swallowing job")
    assert len(caught) == 1
    assert time.monotonic() - start < 2.0
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_no_alarm_armed_without_timeout(sentinel_handler):
    _execute_group([spec_for("none")], timeout_s=None)[0]
    assert_alarm_state_clean(sentinel_handler)
