"""Figures 9 and 10: frequency residency of little and big clusters."""

from benchmarks.conftest import SEED, run_artifact
from repro.experiments.fig09_10_freq import run_frequency_residency
from repro.platform.coretypes import CoreType


def test_fig9_fig10_frequency_residency(benchmark, runner):
    result = run_artifact(benchmark, run_frequency_residency, seed=SEED, runner=runner)

    little = result.residency[CoreType.LITTLE]
    big = result.residency[CoreType.BIG]

    # Every per-app distribution over active time sums to 100%.
    for app, dist in little.items():
        assert abs(sum(dist.values()) - 100.0) < 1e-6, app
    for app, dist in big.items():
        if dist:
            assert abs(sum(dist.values()) - 100.0) < 1e-6, app

    # Figure 9 shape: video playback parks the little cluster at the
    # lowest frequencies; the heavy game spreads across the range.
    assert result.low_freq_share(CoreType.LITTLE, "video-player") > 60.0
    assert result.low_freq_share(CoreType.LITTLE, "youtube") > 60.0
    ew2 = little["eternity-warrior-2"]
    assert len([f for f, pct in ew2.items() if pct > 3.0]) >= 3

    # Figure 10 shape: burst-absorbing latency apps drive big cores to
    # high frequencies; the moderate game uses big cores mostly at low
    # frequencies to mop up marginal overflow, and even the CPU-heavy
    # game spends a solid share of big time at low frequencies.
    assert result.high_freq_share(CoreType.BIG, "encoder") > 50.0
    if big["fifa-15"]:
        assert result.low_freq_share(CoreType.BIG, "fifa-15") > result.high_freq_share(
            CoreType.BIG, "fifa-15"
        )
    if big["eternity-warrior-2"]:
        assert result.low_freq_share(CoreType.BIG, "eternity-warrior-2") > 10.0
