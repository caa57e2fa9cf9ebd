"""Tests for ``repro.dist``: protocol, coordinator, worker, failure paths.

Fast paths use in-process thread workers (real sockets over loopback,
no subprocess start-up); the worker-death test uses genuine
``biglittle worker`` CLI subprocesses because dying abruptly is the
point.  All specs travel with ``trace_policy`` in the wire-admitted set
(``rle``/``none``).
"""

import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.dist import (
    Coordinator,
    DistExecutor,
    DistWorker,
    decode_results,
    encode_results,
    job_key,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.runner.batch import BatchRunner
from repro.runner.cache import ResultCache
from repro.runner.spec import (
    RunSpec,
    execute_spec,
    resolve_kind,
    spec_from_wire,
    spec_to_wire,
)
from repro.sched.params import baseline_config

from tests.dist_kinds import (
    ALWAYS_CRASH_KIND,
    CRASH_ONCE_KIND,
    OK_KIND,
    SLEEPY_KIND,
)
from tests.test_sweepfold import fold_counts, hold_sweep_specs

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sim_spec(seed: int, trace_policy: str = "none") -> RunSpec:
    return RunSpec(
        "pdf-reader", seed=seed, max_seconds=0.5, trace_policy=trace_policy,
    )


def _kind_spec(kind: str, workload: str = "w", seed: int = 0) -> RunSpec:
    return RunSpec(
        workload, kind=kind, seed=seed, max_seconds=1.0, trace_policy="none",
    )


def _thread_worker(coord: Coordinator, cache=None, worker_id=None):
    """A real DistWorker session on a daemon thread (SIGALRM stays off)."""
    worker = DistWorker(coord.endpoint, cache=cache, worker_id=worker_id)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _cli_worker(endpoint: str, *extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", endpoint, *extra],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait_stat(coord: Coordinator, name: str, value: int, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if coord.stats().get(name, 0) >= value:
            return
        time.sleep(0.02)
    raise AssertionError(
        f"{name} never reached {value}: {coord.stats()}"
    )


# ---------------------------------------------------------------------------
# Protocol layer
# ---------------------------------------------------------------------------


def test_parse_endpoint():
    assert parse_endpoint("tcp://10.0.0.1:5555") == ("10.0.0.1", 5555)
    assert parse_endpoint("localhost:80") == ("localhost", 80)
    with pytest.raises(ValueError):
        parse_endpoint("5555")


def test_frame_roundtrip_over_socketpair():
    a, b = socket.socketpair()
    try:
        blob = os.urandom(1024)
        sent = send_frame(a, {"type": "result", "n": 3}, blob)
        header, got = recv_frame(b)
        assert header.pop("_nbytes") == sent  # receiver-side size annotation
        assert header == {"type": "result", "n": 3}
        assert got == blob
        assert sent >= len(blob) + 8
        a.close()
        with pytest.raises(ConnectionError):
            recv_frame(b)  # EOF
    finally:
        b.close()


def test_spec_wire_roundtrip_preserves_key():
    spec = RunSpec(
        "pdf-reader", chip="exynos5422", core_config="L4+B4", seed=11,
        max_seconds=2.0, scheduler=baseline_config(), observe=True,
        reductions=("power_summary",), trace_policy="rle",
    )
    back = spec_from_wire(spec_to_wire(spec))
    assert back.key() == spec.key()
    assert back.scheduler.name == spec.scheduler.name
    assert back.reductions == spec.reductions


def test_result_codec_roundtrip_scalars_and_rle():
    slim = execute_spec(_sim_spec(1))
    rle = execute_spec(_sim_spec(2, trace_policy="rle"))
    metas, blob = encode_results([slim, rle])
    assert metas[0]["trace"] is None and metas[1]["trace"] == "rle"
    out = decode_results(metas, blob)
    assert [r.spec_key for r in out] == [slim.spec_key, rle.spec_key]
    assert out[0].scalars() == slim.scalars()
    assert np.array_equal(
        out[1].trace.materialize().busy, rle.trace.materialize().busy
    )


def test_result_codec_refuses_dense_traces():
    # No spec can ask for a dense result ...
    with pytest.raises(ValueError, match="valid: rle, none$"):
        _sim_spec(3, trace_policy="full")
    # ... and a dense trace handed to the codec still crosses as RLE.
    spec = _sim_spec(3, trace_policy="rle")
    dense = resolve_kind(spec.kind)(spec)
    metas, blob = encode_results([dense])
    assert metas[0]["trace"] == "rle"
    (out,) = decode_results(metas, blob)
    assert np.array_equal(out.trace.materialize().busy, dense.trace.busy)


def test_job_key_single_vs_cohort():
    a, b = _sim_spec(1), _sim_spec(2)
    assert job_key([a]) == a.key()
    cohort = job_key([a, b])
    assert cohort.startswith("cohort:") and cohort != job_key([b, a])


# ---------------------------------------------------------------------------
# Coordinator admission and handshake
# ---------------------------------------------------------------------------


def test_dense_trace_policy_refused_at_submit():
    with Coordinator().start() as coord:
        with pytest.raises(ValueError, match="valid: rle, none$"):
            coord.submit([_sim_spec(1, trace_policy="full")], None, lambda *a: None)
        assert coord.stats().get("dist.jobs", 0) == 0


def test_version_mismatch_rejected():
    with Coordinator().start() as coord:
        conn = socket.create_connection((coord.host, coord.port), timeout=5)
        try:
            send_frame(conn, {
                "type": "hello", "worker_id": "stale", "version": "0.0.0",
            })
            reply, _ = recv_frame(conn)
            assert reply["type"] == "reject"
            assert repro.__version__ in reply["reason"]
        finally:
            conn.close()
        _wait_stat(coord, "dist.workers_rejected", 1)
        assert coord.worker_count == 0


# ---------------------------------------------------------------------------
# End-to-end: byte-identical to local execution
# ---------------------------------------------------------------------------


def test_distributed_results_match_serial():
    specs = [_sim_spec(s) for s in (1, 2, 3, 4)]
    reference = BatchRunner(cache=None, workers=1).run(specs)
    with Coordinator().start() as coord:
        workers = [_thread_worker(coord, worker_id=f"w{i}") for i in (1, 2)]
        coord.wait_for_workers(2)
        report = BatchRunner(cache=None, executor=DistExecutor(coord)).run(specs)
    assert report.succeeded()
    for local, remote in zip(reference.results, report.results):
        assert remote.scalars() == local.scalars()
    stats = coord.stats()
    assert stats["dist.jobs_executed"] == 4
    assert stats["dist.bytes_out"] > 0
    for worker, thread in workers:
        thread.join(timeout=5)


def test_distributed_rle_trace_is_bit_identical():
    spec = _sim_spec(5, trace_policy="rle")
    local = execute_spec(spec)
    with Coordinator().start() as coord:
        _thread_worker(coord)
        coord.wait_for_workers(1)
        report = BatchRunner(cache=None, executor=DistExecutor(coord)).run([spec])
    assert report.succeeded()
    remote = report.results[0]
    assert remote.scalars() == local.scalars()
    assert np.array_equal(
        remote.trace.materialize().busy, local.trace.materialize().busy
    )
    assert np.array_equal(
        remote.trace.materialize().power_mw, local.trace.materialize().power_mw
    )
    assert report.transport_bytes > 0


def test_fold_family_travels_as_one_job():
    """A 64-variant hold sweep is one job; the worker folds it onto 7
    representatives and returns the pool's scalars for every variant."""
    specs = hold_sweep_specs()
    pool = BatchRunner(
        cache=None, workers=2, cohorts=True, executor="pool"
    ).run(specs)
    pool.raise_on_failure()
    with Coordinator().start() as coord:
        _, thread = _thread_worker(coord)
        coord.wait_for_workers(1)
        reps0, _ = fold_counts()
        report = BatchRunner(
            cache=None, cohorts=True, executor=DistExecutor(coord)
        ).run(specs)
        reps1, _ = fold_counts()
        stats = coord.stats()
    report.raise_on_failure()
    assert stats["dist.jobs_executed"] == 1
    assert stats["dist.specs_executed"] == len(specs)
    assert reps1 - reps0 == 7
    for local, remote in zip(pool.results, report.results):
        assert remote.scalars() == local.scalars()
    thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------


def test_worker_killed_mid_job_requeues(tmp_path):
    """An abrupt worker death requeues the job to a surviving worker."""
    flag = str(tmp_path / "crash-flag")
    spec = _kind_spec(CRASH_ONCE_KIND, workload=flag)
    with Coordinator(heartbeat_s=0.2) as coord:
        coord.start()
        procs = [_cli_worker(coord.endpoint, "--no-cache", "--id", f"c{i}")
                 for i in (1, 2)]
        try:
            assert coord.wait_for_workers(2, timeout_s=30) == 2
            report = BatchRunner(
                cache=None, retries=0, executor=DistExecutor(coord)
            ).run([spec])
            assert report.succeeded()
            assert report.jobs[0].attempts == 1  # requeue is not a retry
            stats = coord.stats()
            assert stats["dist.requeues"] >= 1
            assert stats.get("dist.workers_disconnected", 0) >= 1
        finally:
            coord.shutdown()
            for p in procs:
                try:
                    p.communicate(timeout=10)
                except subprocess.TimeoutExpired:
                    p.kill()
    assert os.path.exists(flag), "crash kind never ran"


def test_hung_worker_hits_job_deadline():
    """A worker that heartbeats but never finishes fails as a timeout."""
    spec = _kind_spec(SLEEPY_KIND)
    with Coordinator(heartbeat_s=0.2, job_grace_s=0.5) as coord:
        coord.start()
        _thread_worker(coord)  # thread => SIGALRM off => the sleep runs wild
        coord.wait_for_workers(1)
        report = BatchRunner(
            cache=None, retries=0, timeout_s=0.3, executor=DistExecutor(coord)
        ).run([spec])
        assert not report.succeeded()
        assert report.jobs[0].status == "timeout"
        assert coord.stats()["dist.worker_timeouts"] == 1


def test_worker_death_exhausts_requeues_then_fails():
    """When every worker dies, requeues run out and the runner sees it."""
    spec = _kind_spec(ALWAYS_CRASH_KIND)

    class _Respawn:
        """Keep one CLI worker alive at a time, respawning as they die."""

        def __init__(self, endpoint):
            self.endpoint = endpoint
            self.stop = False
            self.procs = []

        def run(self):
            while not self.stop:
                proc = _cli_worker(
                    self.endpoint, "--no-cache", "--connect-timeout", "2"
                )
                self.procs.append(proc)
                proc.wait()

    with Coordinator(heartbeat_s=0.2, max_requeues=1) as coord:
        coord.start()
        spawner = _Respawn(coord.endpoint)
        thread = threading.Thread(target=spawner.run, daemon=True)
        thread.start()
        try:
            report = BatchRunner(
                cache=None, retries=0, executor=DistExecutor(coord)
            ).run([spec])
        finally:
            spawner.stop = True
        assert not report.succeeded()
        assert report.jobs[0].status == "failed"
        assert "worker" in (report.jobs[0].error or "").lower()
        assert coord.stats()["dist.requeues"] == 1
    for proc in spawner.procs:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


# ---------------------------------------------------------------------------
# Global dedup
# ---------------------------------------------------------------------------


def test_concurrent_duplicate_sweep_executes_once():
    """Two runners submitting the same specs share single executions."""
    specs = [_kind_spec(OK_KIND, seed=s) for s in (1, 2, 3)]
    with Coordinator().start() as coord:
        reports = [None, None]

        def _run(slot):
            reports[slot] = BatchRunner(
                cache=None, executor=DistExecutor(coord)
            ).run(specs)

        threads = [
            threading.Thread(target=_run, args=(slot,)) for slot in (0, 1)
        ]
        for t in threads:
            t.start()
        # Both runners queue all groups before any worker exists, so the
        # second submission of each spec must attach to the first's job.
        _wait_stat(coord, "dist.dedup_specs", 3)
        _thread_worker(coord)
        coord.wait_for_workers(1)
        for t in threads:
            t.join(timeout=60)
        stats = coord.stats()

    assert all(r is not None and r.succeeded() for r in reports)
    for a, b in zip(reports[0].results, reports[1].results):
        assert a.scalars() == b.scalars()
    assert stats["dist.specs"] == 3
    assert stats["dist.dedup_specs"] == 3
    assert stats["dist.specs_executed"] == 3  # zero duplicate executions


def test_worker_local_cache_answers_without_executing(tmp_path):
    """A spec cached on the worker is served from its cache, not re-run."""
    specs = [_sim_spec(s) for s in (7, 8)]
    cache = ResultCache(root=str(tmp_path / "wcache"))
    for spec in specs:
        cache.store(spec, execute_spec(spec))
    with Coordinator().start() as coord:
        _thread_worker(coord, cache=cache)
        coord.wait_for_workers(1)
        report = BatchRunner(cache=None, executor=DistExecutor(coord)).run(specs)
        stats = coord.stats()
    assert report.succeeded()
    assert stats["dist.worker_cache_hits"] == 2
    for spec, result in zip(specs, report.results):
        assert result.scalars() == cache.load(spec).scalars()


def test_worker_catalog_delta_survives_a_replaced_log(tmp_path):
    """Byte-offset shipping restarts on a rebuilt log and skips torn lines."""
    import json

    from repro.lake.catalog import Catalog

    cache = ResultCache(root=str(tmp_path))
    catalog = Catalog(root=cache.root)
    worker = DistWorker("tcp://127.0.0.1:1", cache=cache)
    specs = [_sim_spec(s) for s in (1, 2, 3)]
    result = execute_spec(specs[0])

    cache.store(specs[0], result)
    assert len(worker._catalog_delta()) == 1
    cache.store(specs[1], result)
    assert [json.loads(line)["spec_key"] for line in worker._catalog_delta()] == [
        specs[1].key()
    ]
    assert worker._catalog_delta() == []

    # A compaction replaces the file: the whole new log ships, one
    # parseable line per entry, nothing skipped.
    cache.evict(specs[0])
    catalog.rebuild()
    cache.store(specs[2], result)
    shipped = [json.loads(line) for line in worker._catalog_delta()]
    assert {r["spec_key"] for r in shipped} == {specs[1].key(), specs[2].key()}

    # A line still being written waits for its newline.
    record = json.dumps({"schema": 1, "op": "evict", "version": "x", "spec_key": "y"})
    with open(catalog.path, "a") as fh:
        fh.write(record[:10])
    assert worker._catalog_delta() == []
    with open(catalog.path, "a") as fh:
        fh.write(record[10:] + "\n")
    assert worker._catalog_delta() == [record]
