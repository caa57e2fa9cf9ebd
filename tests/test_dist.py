"""Tests for ``repro.dist``: protocol, coordinator, worker, failure paths.

Fast paths use in-process thread workers (real sockets over loopback,
no subprocess start-up); the worker-death test uses genuine
``biglittle worker`` CLI subprocesses because dying abruptly is the
point.  All specs travel with ``trace_policy`` in the wire-admitted set
(``rle``/``none``).
"""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.dist import (
    Coordinator,
    DistExecutor,
    DistWorker,
    ProtocolError,
    decode_results,
    encode_results,
    job_key,
    parse_endpoint,
    recv_frame,
    send_frame,
)
from repro.lake.catalog import Catalog
from repro.runner.batch import BatchRunner
from repro.runner.cache import CACHE_DIR_ENV, ResultCache
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


def _thread_worker(coord: Coordinator, worker_id=None):
    """A real DistWorker session on a daemon thread (SIGALRM stays off)."""
    worker = DistWorker(coord.endpoint, worker_id=worker_id)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def _cli_worker(endpoint: str, *extra: str, **env_extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH="src", **env_extra)
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
        procs = [_cli_worker(coord.endpoint, "--id", f"c{i}")
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
                proc = _cli_worker(self.endpoint, "--connect-timeout", "2")
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


# ---------------------------------------------------------------------------
# One store and one index: the submitting runner's
# ---------------------------------------------------------------------------


def _assert_indexed_once(root: str, specs) -> None:
    """Catalog log == tree scan == the specs, one ``store`` line each."""
    catalog = Catalog(root=root)
    expected = {(repro.__version__, s.key()) for s in specs}

    def keys(entries):
        return {(e.version, e.spec_key) for e in entries}

    assert keys(catalog.load()) == keys(catalog.scan()) == expected
    with open(catalog.path) as fh:
        ops = [json.loads(line)["op"] for line in fh if line.strip()]
    assert ops == ["store"] * len(specs)
    assert main(["lake", "index", "--cache-dir", root]) == 0
    assert keys(catalog.load()) == expected


def test_distributed_batch_is_indexed_once_by_the_runner(tmp_path):
    specs = [_sim_spec(s) for s in (1, 2, 3)]
    cache = ResultCache(root=str(tmp_path))
    with Coordinator().start() as coord:
        _, thread = _thread_worker(coord)
        coord.wait_for_workers(1)
        report = BatchRunner(cache=cache, executor=DistExecutor(coord)).run(specs)
    report.raise_on_failure()
    _assert_indexed_once(cache.root, specs)
    thread.join(timeout=5)


def test_runner_served_endpoint_is_indexed_once(tmp_path):
    """The ``sweep --executor tcp://`` path with a plain CLI worker."""
    specs = [_sim_spec(s) for s in (1, 2, 3)]
    cache = ResultCache(root=str(tmp_path / "lake"))
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        endpoint = f"tcp://127.0.0.1:{probe.getsockname()[1]}"
    # Whatever the worker might write stays inside tmp_path.
    proc = _cli_worker(endpoint, **{CACHE_DIR_ENV: str(tmp_path / "worker")})
    try:
        report = BatchRunner(cache=cache, executor=endpoint).run(specs)
    finally:
        try:
            proc.communicate(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    report.raise_on_failure()
    _assert_indexed_once(cache.root, specs)


def test_unexpected_frame_mid_job_requeues_to_a_real_worker(monkeypatch):
    """A worker that answers a job with a frame the protocol does not
    expect mid-job (here the ``catalog`` frame an older worker at the same
    version sends) is dropped and its job requeued, never answered."""
    raised = []
    dispatch = Coordinator._dispatch

    def _recording_dispatch(self, worker, job):
        try:
            return dispatch(self, worker, job)
        except Exception as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(Coordinator, "_dispatch", _recording_dispatch)
    spec = _sim_spec(9)
    with Coordinator().start() as coord:
        fake = socket.create_connection((coord.host, coord.port), timeout=10)
        try:
            send_frame(fake, {
                "type": "hello", "worker_id": "fake",
                "version": repro.__version__,
            })
            assert recv_frame(fake)[0]["type"] == "welcome"
            coord.wait_for_workers(1)
            reports = []
            runner = threading.Thread(target=lambda: reports.append(
                BatchRunner(cache=None, executor=DistExecutor(coord)).run([spec])
            ))
            runner.start()
            job, _ = recv_frame(fake)
            assert job["type"] == "job"
            send_frame(fake, {"type": "catalog", "lines": []})
            with pytest.raises(ConnectionError):
                recv_frame(fake)  # the coordinator hung up on the fake
        finally:
            fake.close()
        _thread_worker(coord, worker_id="real")
        runner.join(timeout=60)
        stats = coord.stats()
    assert [type(exc) for exc in raised] == [ProtocolError]
    assert "'catalog'" in str(raised[0])
    (report,) = reports
    report.raise_on_failure()
    assert report.results[0].scalars() == execute_spec(spec).scalars()
    assert stats["dist.requeues"] == 1
    assert stats["dist.workers_disconnected"] >= 1
    assert stats["dist.jobs_executed"] == 1
