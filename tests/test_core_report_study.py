"""Tests for report rendering and the high-level study API."""

import numpy as np
import pytest

from repro.core.report import render_bar_chart, render_matrix, render_table
from repro.core.study import run_app
from repro.workloads.base import Metric


class TestRenderTable:
    def test_alignment_and_title(self):
        out = render_table(["a", "bb"], [[1.0, 2.5], [10.0, 20.25]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.00" in out and "20.25" in out

    def test_float_format(self):
        out = render_table(["x"], [[3.14159]], float_fmt="{:.0f}")
        assert "3" in out and "3.14" not in out

    def test_mixed_types(self):
        out = render_table(["name", "v"], [["app", 1.5]])
        assert "app" in out


class TestRenderMatrix:
    def test_shape_rendered(self):
        matrix = np.array([[50.0, 25.0], [12.5, 12.5]])
        out = render_matrix(matrix)
        assert "C0" in out and "C1" in out
        assert "50.00" in out


class TestRenderBarChart:
    def test_bars_scale(self):
        out = render_bar_chart(["a", "b"], [10.0, 20.0], width=10)
        lines = out.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            render_bar_chart(["a"], [1.0, 2.0])

    def test_zero_values_no_bars(self):
        out = render_bar_chart(["a"], [0.0])
        assert "#" not in out


class TestRunApp:
    def test_fps_app_default_duration(self):
        run = run_app("video-player", seed=0)
        assert run.metric is Metric.FPS
        assert run.trace.duration_s == pytest.approx(12.0, abs=0.1)

    def test_latency_app_stops_at_script_end(self):
        run = run_app("photo-editor", seed=0)
        assert run.metric is Metric.LATENCY
        assert run.trace.duration_s < 60.0

    def test_custom_duration(self):
        run = run_app("youtube", seed=0, max_seconds=3.0)
        assert run.trace.duration_s == pytest.approx(3.0, abs=0.1)

    def test_config_label(self):
        from repro.platform.chip import CoreConfig
        run = run_app("youtube", core_config=CoreConfig(2, 1), max_seconds=2.0)
        assert run.config_label == "L2+B1"

    def test_energy_consistent_with_power(self):
        run = run_app("youtube", seed=0, max_seconds=3.0)
        assert run.energy_mj() == pytest.approx(
            run.avg_power_mw() * run.trace.duration_s, rel=1e-5
        )


class TestCharacterizationStudy:
    def test_characterization_complete(self, study):
        c = study.characterize("video-player")
        assert c.tlp.n_windows > 500
        assert c.matrix.shape == (5, 5)
        assert c.matrix.sum() == pytest.approx(100.0)
        assert sum(c.efficiency.as_row()) == pytest.approx(100.0)
        assert sum(c.little_residency.values()) == pytest.approx(100.0)

    def test_cache_returns_same_object(self, study):
        assert study.characterize("video-player") is study.characterize("video-player")

    def test_big_residency_empty_for_little_only_app(self, study):
        c = study.characterize("video-player")
        assert sum(c.big_residency.values()) in (0.0, pytest.approx(100.0))
