"""Tests for :mod:`repro.runner` — spec hashing, batch execution,
serial/parallel bit-identity, caching, and the fault-tolerance paths."""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.platform.chip import exynos5422
from repro.runner import (
    BatchRunner,
    JobTimeout,
    ResultCache,
    RunResult,
    RunSpec,
    execute_spec,
    resolve_kind,
)
from repro.runner.spec import spec_from_wire, spec_to_wire
from repro.sched.params import baseline_config, variant_configs

#: A cheap grid: two core configs of one FPS app, 1 s of simulated time.
SMALL_SPECS = [
    RunSpec("video-player", chip="exynos5422", core_config=c, seed=3, max_seconds=1.0)
    for c in ("L4+B4", "L2+B1")
]


# ---------------------------------------------------------------------------
# Custom kinds for the fault-injection tests.  Module-level and addressed
# by dotted path, so pool workers resolve them regardless of start method.
# The spec's ``workload`` field carries the scratch path they key on.
# ---------------------------------------------------------------------------


def _ok_kind(spec: RunSpec) -> RunResult:
    return RunResult(
        spec_key=spec.key(), workload=spec.workload, metric="fps",
        duration_s=0.01, avg_power_mw=100.0, energy_mj=1.0, avg_fps=60.0,
    )


def _crash_once_kind(spec: RunSpec) -> RunResult:
    """Kill the worker process abruptly on the first attempt only."""
    flag = spec.workload
    if not os.path.exists(flag):
        with open(flag, "w") as f:
            f.write("crashed")
        os._exit(3)
    return _ok_kind(spec)


def _always_raise_kind(spec: RunSpec) -> RunResult:
    raise ValueError(f"injected failure for {spec.workload}")


def _sleepy_kind(spec: RunSpec) -> RunResult:
    time.sleep(10.0)
    return _ok_kind(spec)


OK_KIND = f"{__name__}:_ok_kind"
CRASH_ONCE_KIND = f"{__name__}:_crash_once_kind"
RAISE_KIND = f"{__name__}:_always_raise_kind"
SLEEPY_KIND = f"{__name__}:_sleepy_kind"


class TestRunSpec:
    def test_key_is_stable_across_instances(self):
        a = RunSpec("bbench", core_config="L2+B1", seed=4)
        b = RunSpec("bbench", core_config="L2+B1", seed=4)
        assert a.key() == b.key()

    def test_key_distinguishes_every_field(self):
        base = RunSpec("bbench", seed=0)
        variants = [
            RunSpec("browser", seed=0),
            RunSpec("bbench", seed=1),
            RunSpec("bbench", seed=0, core_config="L2"),
            RunSpec("bbench", seed=0, max_seconds=5.0),
            RunSpec("bbench", seed=0, chip="exynos5422"),
            RunSpec("bbench", seed=0, scheduler=variant_configs()[0]),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_inline_chip_is_content_hashed(self):
        a = RunSpec("bbench", chip=exynos5422())
        b = RunSpec("bbench", chip=exynos5422())
        c = RunSpec("bbench", chip=exynos5422(screen_on=True))
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_key_memo_stays_out_of_identity(self):
        def make():
            return RunSpec("bbench", core_config="L2+B1", seed=4, trace_policy="rle")

        spec, twin = make(), make()
        key = spec.key()
        assert spec.key() is key  # computed once per instance
        assert spec_from_wire(spec_to_wire(spec)).key() == key
        assert spec == twin and hash(spec) == hash(twin)
        assert spec_to_wire(spec) == spec_to_wire(twin)
        assert pickle.dumps(spec) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(spec)).key() == key
        assert replace(spec, seed=5).key() == RunSpec(
            "bbench", core_config="L2+B1", seed=5, trace_policy="rle"
        ).key()

    def test_manifest_is_json_serializable(self):
        spec = RunSpec("bbench", chip=exynos5422(), scheduler=baseline_config())
        json.dumps(spec.manifest(), sort_keys=True)

    def test_label(self):
        spec = RunSpec("bbench", core_config="L2+B1", seed=4)
        assert spec.label() == "bbench/L2+B1/s4"

    def test_unknown_chip_and_kind(self):
        with pytest.raises(KeyError):
            execute_spec(RunSpec("bbench", chip="no-such-chip"))
        with pytest.raises(KeyError):
            resolve_kind("no-such-kind")

    def test_dotted_path_kind_resolves(self):
        result = execute_spec(RunSpec("x", kind=OK_KIND))
        assert result.avg_fps == 60.0


class TestSerialParallelIdentity:
    def test_parallel_matches_serial_bit_for_bit(self):
        serial = BatchRunner(workers=1).run(SMALL_SPECS)
        parallel = BatchRunner(workers=2).run(SMALL_SPECS)
        assert serial.succeeded() and parallel.succeeded()
        for a, b in zip(serial.results, parallel.results):
            assert a.scalars() == b.scalars()
            assert np.array_equal(a.trace.busy, b.trace.busy)
            assert np.array_equal(a.trace.power_mw, b.trace.power_mw)

    def test_results_keep_spec_order(self):
        specs = [
            RunSpec("video-player", chip="exynos5422", seed=s, max_seconds=0.3)
            for s in range(5)
        ]
        report = BatchRunner(workers=4).run(specs)
        assert [r.spec_key for r in report.results] == [s.key() for s in specs]

    def test_serial_env_forces_inline(self):
        report = BatchRunner(workers=8, executor="serial").run(SMALL_SPECS[:1])
        assert report.workers == 1
        assert report.succeeded()


class TestCache:
    def test_warm_rerun_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cold = BatchRunner(workers=1, cache=cache).run(SMALL_SPECS)
        assert cold.cache_hits == 0 and cold.cache_misses == len(SMALL_SPECS)
        warm = BatchRunner(workers=1, cache=cache).run(SMALL_SPECS)
        assert warm.cache_hits == len(SMALL_SPECS) and warm.cache_misses == 0
        assert all(j.status == "cached" for j in warm.jobs)
        for a, b in zip(cold.results, warm.results):
            assert a.scalars() == b.scalars()
            assert np.array_equal(a.trace.busy, b.trace.busy)
            assert np.array_equal(a.trace.power_mw, b.trace.power_mw)

    def test_version_bump_invalidates(self, tmp_path):
        spec = SMALL_SPECS[0]
        old = ResultCache(root=str(tmp_path), version="1.0.0")
        BatchRunner(workers=1, cache=old).run([spec])
        assert old.contains(spec)
        new = ResultCache(root=str(tmp_path), version="1.0.1")
        assert not new.contains(spec)
        assert new.load(spec) is None

    def test_default_version_is_package_version(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        assert cache.version == repro.__version__
        spec = SMALL_SPECS[0]
        BatchRunner(workers=1, cache=cache).run([spec])
        assert os.path.isdir(tmp_path / repro.__version__ / spec.key())

    def test_traceless_result_round_trips(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = RunSpec("x", kind=OK_KIND)
        cache.store(spec, _ok_kind(spec))
        loaded = cache.load(spec)
        assert loaded is not None
        assert loaded.trace is None
        assert loaded.avg_fps == 60.0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = SMALL_SPECS[0]
        cache.store(spec, execute_spec(spec))
        with open(os.path.join(cache.entry_dir(spec), "result.json"), "w") as f:
            f.write("{not json")
        assert cache.load(spec) is None

    def test_corrupt_entry_is_evicted_and_counted(
        self, tmp_path, caplog, monkeypatch
    ):
        import logging

        from repro.obs.metrics import global_metrics, reset_global_metrics

        # A CLI test running earlier may have called setup_logging(),
        # which sets propagate=False on the "repro" logger — re-enable
        # propagation so caplog's root handler sees the warning.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        reset_global_metrics()
        cache = ResultCache(root=str(tmp_path))
        spec = SMALL_SPECS[0]
        cache.store(spec, execute_spec(spec))
        with open(os.path.join(cache.entry_dir(spec), "result.json"), "w") as f:
            f.write("{not json")
        with caplog.at_level("WARNING", logger="repro.runner.cache"):
            assert cache.load(spec) is None
        assert not os.path.isdir(cache.entry_dir(spec))
        assert global_metrics().counter("cache.corrupt").value == 1
        assert any("corrupt" in r.message for r in caplog.records)
        # The eviction cleared the bad bytes: a re-store then hits.
        cache.store(spec, execute_spec(spec))
        assert cache.load(spec) is not None

    def test_truncated_rle_trace_is_evicted(self, tmp_path):
        from repro.obs.metrics import global_metrics, reset_global_metrics

        reset_global_metrics()
        cache = ResultCache(root=str(tmp_path))
        spec = RunSpec(
            "video-player", chip="exynos5422", seed=3, max_seconds=1.0,
            trace_policy="rle",
        )
        cache.store(spec, execute_spec(spec))
        rle_path = os.path.join(cache.entry_dir(spec), "trace.rle")
        size = os.path.getsize(rle_path)
        with open(rle_path, "r+b") as f:
            f.truncate(size // 2)
        assert cache.load(spec) is None
        assert not os.path.isdir(cache.entry_dir(spec))
        assert global_metrics().counter("cache.corrupt").value == 1

    def test_missing_entry_is_plain_miss_not_corrupt(self, tmp_path):
        from repro.obs.metrics import global_metrics, reset_global_metrics

        reset_global_metrics()
        cache = ResultCache(root=str(tmp_path))
        assert cache.load(SMALL_SPECS[0]) is None
        assert global_metrics().counter("cache.corrupt").value == 0
        assert global_metrics().counter("cache.misses").value == 1

    def test_pyproject_reads_version_from_package(self):
        # Satellite guard: the cache keys on repro.__version__, so the
        # package metadata must be derived from it, not hardcoded.
        root = os.path.join(os.path.dirname(__file__), "..")
        with open(os.path.join(root, "pyproject.toml")) as f:
            text = f.read()
        assert 'dynamic = ["version"]' in text
        assert 'attr = "repro.__version__"' in text
        assert 'version = "1.' not in text


class TestFaultTolerance:
    def test_worker_crash_is_retried(self, tmp_path):
        flag = str(tmp_path / "crash-flag")
        specs = [
            RunSpec(flag, kind=CRASH_ONCE_KIND),
            RunSpec("other", kind=OK_KIND),
        ]
        report = BatchRunner(workers=2, retries=2).run(specs)
        assert report.succeeded()
        crash_job = report.jobs[0]
        assert crash_job.status == "ok"
        assert crash_job.attempts >= 2
        assert report.results[1].avg_fps == 60.0

    def test_poison_job_fails_without_aborting_batch(self):
        specs = [
            RunSpec("poison", kind=RAISE_KIND),
            RunSpec("fine", kind=OK_KIND),
        ]
        report = BatchRunner(workers=2, retries=1).run(specs)
        assert not report.succeeded()
        assert report.jobs[0].status == "failed"
        assert report.jobs[0].attempts == 2  # initial + one retry
        assert "injected failure" in report.jobs[0].error
        assert report.jobs[1].status == "ok"
        assert report.results[0] is None
        with pytest.raises(RuntimeError, match="injected failure"):
            report.raise_on_failure()

    def test_timeout_serial(self):
        report = BatchRunner(workers=1, timeout_s=0.2, retries=0).run(
            [RunSpec("slow", kind=SLEEPY_KIND)]
        )
        assert report.jobs[0].status == "timeout"
        assert report.jobs[0].duration_s < 5.0

    def test_timeout_parallel(self):
        specs = [
            RunSpec("slow", kind=SLEEPY_KIND),
            RunSpec("fine", kind=OK_KIND),
        ]
        report = BatchRunner(workers=2, timeout_s=0.2, retries=0).run(specs)
        assert report.jobs[0].status == "timeout"
        assert report.jobs[1].status == "ok"

    def test_timeout_exception_type(self):
        from repro.runner.executors import _execute_group

        with pytest.raises(JobTimeout):
            _execute_group([RunSpec("slow", kind=SLEEPY_KIND)], timeout_s=0.1)[0]


class TestObservability:
    def test_event_stream_and_jsonl_log(self, tmp_path):
        log = tmp_path / "run.jsonl"
        seen = []
        runner = BatchRunner(
            workers=1, cache=ResultCache(root=str(tmp_path / "cache")),
            on_event=seen.append, log_path=str(log),
        )
        runner.run(SMALL_SPECS[:1])
        runner.run(SMALL_SPECS[:1])  # warm: emits cache_hit
        kinds = [e.event for e in seen]
        assert kinds.count("batch_start") == 2
        assert kinds.count("batch_done") == 2
        assert kinds.count("job_done") == 1
        assert kinds.count("cache_hit") == 1
        with open(log) as f:
            lines = [json.loads(line) for line in f]
        assert len(lines) == len(seen)
        done = [e for e in lines if e["event"] == "batch_done"]
        assert done[1]["extra"]["cache_hits"] == 1

    def test_report_render_and_throughput(self):
        report = BatchRunner(workers=1).run(SMALL_SPECS[:1])
        text = report.render()
        assert "Batch: 1/1 ok" in text
        assert "video-player/L4+B4/s3" in text
        assert report.throughput_jobs_per_s() > 0

    def test_retry_events_emitted(self):
        seen = []
        BatchRunner(workers=1, retries=1, on_event=seen.append).run(
            [RunSpec("poison", kind=RAISE_KIND)]
        )
        kinds = [e.event for e in seen]
        assert "job_retry" in kinds and "job_failed" in kinds


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ValueError):
            BatchRunner(workers=0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            BatchRunner(retries=-1)

    def test_run_one_raises_on_failure(self):
        with pytest.raises(RuntimeError):
            BatchRunner(workers=1, retries=0).run(
                [RunSpec("poison", kind=RAISE_KIND)]
            ).raise_on_failure()
