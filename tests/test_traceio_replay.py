"""Tests for trace persistence and load-trace replay workloads."""

import numpy as np
import pytest

from repro.core.study import run_app
from repro.core.tlp import tlp_stats
from repro.platform.chip import CoreConfig
from repro.platform.coretypes import CoreType
from repro.sim.engine import SimConfig, Simulator
from repro.sim.traceio import load_trace, save_trace_rle
from repro.workloads.replay import LoadTraceApp, validate_segments


def _rewrite(path, mutate):
    """Load a trace file's arrays, apply ``mutate(arrays)``, write it back."""
    with np.load(path) as data:
        arrays = {k: np.array(data[k]) for k in data.files}
    mutate(arrays)
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


class TestTraceIO:
    def test_roundtrip_preserves_arrays(self, tmp_path):
        run = run_app("video-player", seed=3, max_seconds=2.0)
        path = str(tmp_path / "trace.rle")
        save_trace_rle(run.trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.busy, run.trace.busy)
        np.testing.assert_array_equal(loaded.power_mw, run.trace.power_mw)
        np.testing.assert_array_equal(
            loaded.freq_khz(CoreType.BIG), run.trace.freq_khz(CoreType.BIG)
        )
        assert loaded.core_types == run.trace.core_types
        assert loaded.enabled == run.trace.enabled

    def test_analyses_identical_on_loaded_trace(self, tmp_path):
        run = run_app("video-player", seed=3, max_seconds=2.0)
        path = str(tmp_path / "trace.rle")
        save_trace_rle(run.trace, path)
        loaded = load_trace(path)
        assert tlp_stats(loaded) == tlp_stats(run.trace)

    def test_version_check(self, tmp_path):
        import json

        run = run_app("video-player", seed=3, max_seconds=1.0)
        path = str(tmp_path / "trace.rle")
        save_trace_rle(run.trace, path)
        # Corrupt the version field.
        def bump_version(arrays):
            header = json.loads(bytes(arrays["header"].tobytes()).decode())
            header["version"] = 99
            arrays["header"] = np.frombuffer(
                json.dumps(header).encode(), dtype=np.uint8
            )

        _rewrite(path, bump_version)
        with pytest.raises(ValueError, match="unsupported trace format version"):
            load_trace(path)


class TestReplayValidation:
    def test_rejects_empty_thread(self):
        with pytest.raises(ValueError):
            validate_segments([])

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            validate_segments([(0.0, 0.5)])

    def test_rejects_bad_utilization(self):
        with pytest.raises(ValueError):
            validate_segments([(1.0, 1.5)])

    def test_rejects_no_threads(self):
        with pytest.raises(ValueError):
            LoadTraceApp("r", {})


class TestReplayExecution:
    def run_replay(self, threads, core_config=None, max_seconds=20.0, seed=0):
        app = LoadTraceApp("replay", threads)
        sim = Simulator(SimConfig(
            core_config=core_config, max_seconds=max_seconds, seed=seed
        ))
        app.install(sim)
        trace = sim.run()
        return app, trace

    def test_replays_requested_work(self):
        app, trace = self.run_replay({"t": [(2.0, 0.4)]})
        # 2 s at 40% of reference capacity = 0.8 reference-seconds.
        total_busy_units = 0.8
        # Busy *time* varies with DVFS, but the run must complete and
        # take at least the trace duration.
        assert app.latency_s() >= 2.0 - 0.05
        assert float(trace.busy.sum()) * trace.tick_s > 0.5 * total_busy_units

    def test_low_util_thread_stays_little(self):
        app, trace = self.run_replay({"t": [(2.0, 0.2)]})
        big = trace.cores_of_type(CoreType.BIG)
        assert trace.busy[big].sum() == 0.0

    def test_sustained_high_util_reaches_big(self):
        app, trace = self.run_replay({"t": [(3.0, 1.0)]})
        big = trace.cores_of_type(CoreType.BIG)
        assert trace.busy[big].sum() > 0.0

    def test_multiple_threads_overlap(self):
        threads = {f"t{i}": [(2.0, 0.3)] for i in range(3)}
        app, trace = self.run_replay(threads)
        stats = tlp_stats(trace.trimmed(0.5))
        assert stats.tlp > 1.5

    def test_overload_stretches_makespan(self):
        # Two full-utilization threads on a single little core must take
        # about twice the nominal trace duration.
        app, _ = self.run_replay(
            {"a": [(1.0, 1.0)], "b": [(1.0, 1.0)]},
            core_config=CoreConfig(1, 0),
        )
        assert app.latency_s() > 1.6

    def test_helpers(self):
        app = LoadTraceApp("r", {"a": [(1.0, 0.5)], "b": [(2.5, 0.1)]})
        assert app.total_duration_s() == pytest.approx(2.5)
        assert app.total_work_units() == pytest.approx(0.75)


class TestTraceIOValidation:
    """PathLike acceptance and corrupt-file detection."""

    @staticmethod
    def _small_trace():
        from repro.sim.trace import Trace

        trace = Trace([CoreType.LITTLE, CoreType.BIG], [True, True], 8)
        for i in range(5):
            trace.record([0.5, 0.25], 1_000_000, 2_000_000, 100.0 + i,
                         wakeups=1, little_cpu_mw=10.0, big_cpu_mw=20.0)
        trace.finalize()
        return trace

    def test_accepts_pathlike(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "tr.rle"  # pathlib.Path, not str
        save_trace_rle(trace, path)
        loaded = load_trace(path)
        np.testing.assert_array_equal(loaded.busy, trace.busy)
        assert len(loaded) == 5

    def test_truncated_array_rejected(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "tr.rle"
        save_trace_rle(trace, path)

        def drop_last_power_run(arrays):
            arrays["power_values"] = arrays["power_values"][:-1]
            arrays["power_lengths"] = arrays["power_lengths"][:-1]
            arrays["power_splits"] = arrays["power_splits"] - 1

        _rewrite(path, drop_last_power_run)
        with pytest.raises(ValueError, match=r"power\[0\]=4"):
            load_trace(path)

    def test_missing_array_rejected(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "tr.rle"
        save_trace_rle(trace, path)
        _rewrite(path, lambda arrays: arrays.pop("wakeups_values"))
        with pytest.raises(ValueError, match="missing arrays wakeups_values"):
            load_trace(path)

    def test_core_count_mismatch_rejected(self, tmp_path):
        trace = self._small_trace()
        path = tmp_path / "tr.rle"
        save_trace_rle(trace, path)

        def merge_core_rows(arrays):  # one core row, header says two
            arrays["busy_splits"] = np.array([arrays["busy_splits"].sum()])

        _rewrite(path, merge_core_rows)
        with pytest.raises(ValueError, match="busy has 1 rows but 2"):
            load_trace(path)
