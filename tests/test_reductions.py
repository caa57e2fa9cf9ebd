"""The reductions registry and the in-worker == parent-side guarantee."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.efficiency import EfficiencyBreakdown, efficiency_breakdown
from repro.core.reductions import (
    ReductionContext,
    WARMUP_S,
    decode_reduction,
    get_reduction,
    register_reduction,
    registered_reductions,
)
from repro.core.residency import frequency_residency
from repro.core.study import run_app
from repro.core.tlp import TLPStats, tlp_stats
from repro.core.tlp_matrix import tlp_matrix
from repro.platform.chip import CoreConfig, exynos5422
from repro.platform.coretypes import CoreType
from repro.sched.params import variant_configs
from repro.runner.spec import RunSpec, execute_spec, finalize_result, resolve_kind


# -- registry mechanics ------------------------------------------------------


def test_builtin_reductions_registered():
    names = registered_reductions()
    for expected in (
        "tlp", "tlp_matrix", "residency", "efficiency", "power_summary", "fps",
    ):
        assert expected in names


def test_unknown_reduction_raises_with_listing():
    with pytest.raises(KeyError, match="registered"):
        get_reduction("no-such-reduction")


def test_unknown_reduction_in_spec_fails_at_execute():
    spec = RunSpec(
        "video-player", seed=1, max_seconds=2.0,
        reductions=("no-such-reduction",), trace_policy="none",
    )
    with pytest.raises(KeyError):
        execute_spec(spec)


def test_register_custom_reduction_roundtrip():
    register_reduction(
        "test-tick-count",
        compute=lambda ctx: {"ticks": len(ctx.trace)},
        decode=lambda payload: payload["ticks"],
    )
    try:
        spec = RunSpec(
            "video-player", seed=1, max_seconds=2.0,
            reductions=("test-tick-count",), trace_policy="none",
        )
        result = execute_spec(spec)
        assert result.reduction("test-tick-count") == 2000
    finally:
        from repro.core import reductions as mod

        del mod._REGISTRY["test-tick-count"]


def test_reduction_accessor_raises_when_absent():
    spec = RunSpec("video-player", seed=1, max_seconds=2.0, trace_policy="none")
    result = execute_spec(spec)
    with pytest.raises(KeyError, match="carries no"):
        result.reduction("tlp")


def test_context_steady_is_shared_and_trimmed():
    run = run_app("video-player", seed=1, max_seconds=3.0)
    ctx = ReductionContext(run.trace, exynos5422(screen_on=True))
    steady = ctx.steady
    assert steady is ctx.steady  # cached
    assert len(steady) == len(run.trace) - int(WARMUP_S * 1000)


# -- golden equality: in-worker payloads == parent-side recomputation --------


ALL_TRACE_REDUCTIONS = (
    "tlp", "tlp_matrix", "residency", "efficiency", "power_summary", "fps",
)


@pytest.fixture(scope="module")
def worker_and_reference():
    spec = RunSpec("bbench", seed=5, reductions=ALL_TRACE_REDUCTIONS)
    unfinalized = resolve_kind(spec.kind)(spec)
    trace = unfinalized.trace  # the dense trace, before encoding
    return finalize_result(spec, unfinalized), trace


def test_every_registered_reduction_matches_parent_recompute(worker_and_reference):
    """Payload-decoded values equal a from-scratch parent recomputation."""
    result, trace = worker_and_reference
    chip = exynos5422(screen_on=True)
    steady = trace.trimmed(WARMUP_S)

    tlp = result.reduction("tlp")
    assert isinstance(tlp, TLPStats)
    assert tlp == tlp_stats(steady)

    matrix = result.reduction("tlp_matrix")
    np.testing.assert_array_equal(matrix, tlp_matrix(steady))

    residency = result.reduction("residency")
    assert residency["little"] == frequency_residency(steady, CoreType.LITTLE)
    assert residency["big"] == frequency_residency(steady, CoreType.BIG)

    efficiency = result.reduction("efficiency")
    assert isinstance(efficiency, EfficiencyBreakdown)
    assert efficiency == efficiency_breakdown(
        steady,
        little_min_khz=chip.little_cluster.opp_table.min_khz,
        big_max_khz=chip.big_cluster.opp_table.max_khz,
    )

    power = result.reduction("power_summary")
    assert power["avg_power_mw"] == float(trace.average_power_mw())
    assert power["energy_mj"] == float(trace.energy_mj())
    assert power["wakeups_per_s"] == float(trace.wakeups_per_second())

    fps = result.reduction("fps")
    assert fps["metric"] == result.metric
    assert fps["latency_s"] == result.latency_s


def test_payloads_survive_json_bit_exactly(worker_and_reference):
    """The cache serializes payloads as JSON; values must round-trip."""
    import json

    result, _ = worker_and_reference
    restored = json.loads(json.dumps(result.reductions))
    for name in ALL_TRACE_REDUCTIONS:
        original = decode_reduction(name, result.reductions[name])
        roundtrip = decode_reduction(name, restored[name])
        if isinstance(original, np.ndarray):
            np.testing.assert_array_equal(original, roundtrip)
        else:
            assert original == roundtrip


@pytest.mark.parametrize("app", ["video-player", "pdf-reader"])
def test_run_app_matches_app_kind_off_defaults(app):
    """``run_app`` and the runner's app kind simulate the same run.

    Both build through one builder; a non-default core config,
    scheduler variant and horizon must reach it the same way.
    """
    scheduler = next(v for v in variant_configs() if v.name == "hmp-aggressive")
    run = run_app(
        app, core_config=CoreConfig.parse("L2+B1"), scheduler=scheduler,
        seed=3, max_seconds=2.5,
    )
    spec = RunSpec(
        app, core_config="L2+B1", scheduler=scheduler, seed=3, max_seconds=2.5,
    )
    result = resolve_kind("app")(spec)
    ours, theirs = run.trace, result.trace
    assert run.config_label == "L2+B1"
    assert len(ours) == 2500
    np.testing.assert_array_equal(ours.busy, theirs.busy)
    np.testing.assert_array_equal(ours.power_mw, theirs.power_mw)
    np.testing.assert_array_equal(ours.wakeups, theirs.wakeups)
    for ct in (CoreType.LITTLE, CoreType.BIG):
        np.testing.assert_array_equal(ours.freq_khz(ct), theirs.freq_khz(ct))
        np.testing.assert_array_equal(ours.cpu_power_mw(ct), theirs.cpu_power_mw(ct))
    assert result.metric == run.metric.value
    assert result.duration_s == float(ours.duration_s)
    assert result.avg_power_mw == run.avg_power_mw()
    assert result.energy_mj == float(run.energy_mj())
    if run.metric.value == "latency":
        assert result.latency_s == float(run.latency_s())
    else:
        assert (result.avg_fps, result.min_fps) == (run.avg_fps(), run.min_fps())
