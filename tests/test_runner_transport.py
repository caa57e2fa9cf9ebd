"""Trace policies through the batch runner: transport, metrics, SIGALRM."""

from __future__ import annotations

import pickle
import signal

import numpy as np
import pytest

from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.runner.batch import BatchRunner, JobTimeout, _execute_job
from repro.runner.cache import ResultCache
from repro.runner.spec import RunSpec, execute_spec
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


@pytest.fixture(scope="module")
def full_result():
    return execute_spec(spec_for("full"))


def assert_trace_matches(trace, reference) -> None:
    from repro.platform.coretypes import CoreType

    assert len(trace) == len(reference)
    np.testing.assert_array_equal(trace.busy, reference.busy)
    np.testing.assert_array_equal(trace.power_mw, reference.power_mw)
    for ct in (CoreType.LITTLE, CoreType.BIG):
        np.testing.assert_array_equal(trace.freq_khz(ct), reference.freq_khz(ct))


# -- policy semantics at the execute_spec level ------------------------------


def test_policy_none_drops_trace_keeps_reductions(full_result):
    result = execute_spec(spec_for("none"))
    assert result.trace is None
    assert result.transport_nbytes() == 0
    assert result.reduction("tlp") == full_result.reduction("tlp")
    assert result.reduction("power_summary") == full_result.reduction(
        "power_summary"
    )


def test_policy_rle_is_lazy_and_bit_exact(full_result):
    result = execute_spec(spec_for("rle"))
    assert isinstance(result.trace, LazyTrace)
    assert not result.trace.inflated
    assert 0 < result.transport_nbytes() < full_result.trace.nbytes
    assert_trace_matches(result.trace.materialize(), full_result.trace)


def test_unknown_trace_policy_rejected():
    with pytest.raises(ValueError, match="valid: full, rle, none$"):
        RunSpec("bbench", trace_policy="shm")


# -- batch runner: serial and parallel, with transport accounting ------------


@pytest.mark.parametrize("workers", [1, 2])
def test_batch_policies_bit_identical(tmp_path, full_result, workers):
    reset_global_metrics()
    runner = BatchRunner(
        workers=workers, cache=ResultCache(root=tmp_path / f"c{workers}")
    )
    report = runner.run([
        spec_for("full", seed=4),
        spec_for("rle", seed=4),
        spec_for("none", seed=4),
    ])
    report.raise_on_failure()
    full, rle, none = report.results

    assert_trace_matches(rle.trace, full.trace)
    assert none.trace is None
    for result in (rle, none):
        assert result.reduction("tlp") == full.reduction("tlp")

    if workers > 1:
        # rle + full both cross the pool with payloads; none is free.
        assert report.transport_bytes > 0
        snap = global_metrics().snapshot()
        assert snap.counter("runner.transport.results") == 3
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

    Sixteen idle-heavy 120 s runs: under ``full`` every dense trace
    ships and the parent reduces it; under ``rle`` and ``none`` the five
    reductions run at the source and ship with an RLE trace or none.
    """
    reductions = ("tlp", "tlp_matrix", "residency", "efficiency", "power_summary")

    def pickled_bytes(policy):
        return sum(
            len(pickle.dumps(execute_spec(RunSpec(
                "idle-heavy", kind="repro.runner.benchkinds:run_idle_heavy",
                seed=seed, max_seconds=120.0, trace_policy=policy,
                reductions=() if policy == "full" else reductions,
            ))))
            for seed in range(16)
        )

    full = pickled_bytes("full")
    assert full / pickled_bytes("rle") >= 150
    assert full / pickled_bytes("none") >= 1500


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
    result = _execute_job(spec_for("none"), timeout_s=60.0)
    assert result.reductions
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_alarm_restored_after_job_exception(sentinel_handler):
    bad = RunSpec(
        APP, seed=3, max_seconds=SECONDS,
        reductions=("no-such-reduction",), trace_policy="none",
    )
    with pytest.raises(KeyError):
        _execute_job(bad, timeout_s=60.0)
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_alarm_restored_after_timeout(sentinel_handler):
    with pytest.raises(JobTimeout):
        _execute_job(spec_for("full", max_seconds=60.0), timeout_s=0.05)
    assert_alarm_state_clean(sentinel_handler)


@requires_sigalrm
def test_no_alarm_armed_without_timeout(sentinel_handler):
    _execute_job(spec_for("none"), timeout_s=None)
    assert_alarm_state_clean(sentinel_handler)
