"""Calibration freeze: the app models must keep matching Table III's shape.

These tests pin the *qualitative* orderings of the paper's Table III
(which app families use big cores, which are idle-heavy, who has the
highest TLP) rather than exact percentages — game-phase randomness makes
per-seed magnitudes fluctuate by several points, but the orderings must
never flip.  Exact paper-vs-measured numbers live in EXPERIMENTS.md and
the Table III claim in ``tests/test_paper_claims.py``.  The seed-7
``study`` is the session fixture from ``tests/conftest.py``.
"""

import pytest

from repro.workloads.mobile import MOBILE_APP_NAMES
from repro.workloads.targets import PAPER_TABLE3, deviation


@pytest.fixture(scope="module")
def stats(study):
    return {app: study.characterize(app).tlp for app in MOBILE_APP_NAMES}


class TestCalibrationShape:
    def test_targets_cover_all_apps(self):
        assert set(PAPER_TABLE3) == set(MOBILE_APP_NAMES)

    def test_big_usage_classes(self, stats):
        """Near-zero / moderate / heavy big-core app classes hold."""
        for app in ("angry-bird", "video-player", "youtube"):
            assert stats[app].big_active_pct < 3.0, app
        for app in ("pdf-reader", "browser", "photo-editor"):
            assert stats[app].big_active_pct < 20.0, app
        for app in ("bbench", "encoder"):
            assert stats[app].big_active_pct > 30.0, app

    def test_encoder_is_big_dominated(self, stats):
        assert stats["encoder"].big_active_pct > stats["encoder"].little_only_pct

    def test_bbench_highest_tlp(self, stats):
        for app in MOBILE_APP_NAMES:
            if app != "bbench":
                assert stats["bbench"].tlp > stats[app].tlp, app

    def test_photo_editor_lowest_latency_app_tlp(self, stats):
        latency_apps = ["pdf-reader", "video-editor", "bbench", "virus-scanner",
                        "browser", "encoder"]
        for app in latency_apps:
            if app != "encoder":  # encoder is also single-thread-dominated
                assert stats["photo-editor"].tlp <= stats[app].tlp + 0.3, app

    def test_idle_ordering(self, stats):
        assert stats["browser"].idle_pct > 35.0
        for app in ("bbench", "encoder"):
            assert stats[app].idle_pct < 5.0, app
        assert stats["browser"].idle_pct > stats["video-player"].idle_pct

    def test_all_tlp_within_one_core_of_paper(self, stats):
        for app in MOBILE_APP_NAMES:
            d = deviation(app, stats[app])
            assert d.tlp_delta < 1.0, (app, d)

    def test_big_share_within_15_points(self, stats):
        for app in MOBILE_APP_NAMES:
            d = deviation(app, stats[app])
            assert d.big_delta < 15.0, (app, d)

    def test_idle_within_15_points(self, stats):
        for app in MOBILE_APP_NAMES:
            d = deviation(app, stats[app])
            assert d.idle_delta < 15.0, (app, d)
