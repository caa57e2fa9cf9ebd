"""Tables III and IV: TLP and activity matrices for the 12 applications."""

from benchmarks.conftest import SEED, run_artifact
from repro.experiments.table3_4_tlp import run_tlp_tables


def test_table3_table4_tlp(benchmark, runner):
    result = run_artifact(benchmark, run_tlp_tables, seed=SEED, runner=runner)

    stats = result.stats
    # Paper shape: TLP below ~3 everywhere except BBench (~4).
    for app, s in stats.items():
        if app != "bbench":
            assert s.tlp < 3.3, app
    assert stats["bbench"].tlp > 3.3

    # Big-core usage: near zero for the light apps, heavy for the
    # burst/CPU-bound ones (paper ordering).
    for app in ("angry-bird", "video-player", "youtube"):
        assert stats[app].big_active_pct < 3.0, app
    for app in ("bbench", "encoder"):
        assert stats[app].big_active_pct > 30.0, app
    assert stats["virus-scanner"].big_active_pct > 15.0
    assert stats["browser"].big_active_pct < 12.0

    # Idle: browser reads (high idle); bbench and encoder never rest.
    assert stats["browser"].idle_pct > 35.0
    assert stats["bbench"].idle_pct < 5.0
    assert stats["encoder"].idle_pct < 5.0

    # Table IV consistency: every matrix is a distribution, idle in the
    # corner, and when big cores run it is almost always exactly one.
    import numpy as np
    for app, matrix in result.matrices.items():
        assert abs(matrix.sum() - 100.0) < 1e-6, app
        assert abs(matrix[0, 0] - stats[app].idle_pct) < 1e-6, app
    for app in ("encoder", "virus-scanner", "eternity-warrior-2"):
        matrix = result.matrices[app]
        assert matrix[1].sum() > matrix[2:].sum(), app
