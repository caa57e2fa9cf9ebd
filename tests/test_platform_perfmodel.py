"""Tests for the analytical throughput model."""

import pytest

from repro.platform.coretypes import cortex_a7, cortex_a15
from repro.platform.perfmodel import (
    COMPUTE_BOUND,
    WorkClass,
    seconds_per_unit,
    speedup,
    throughput_units_per_sec,
)
from repro.units import F_REF_KHZ

A7 = cortex_a7()
A15 = cortex_a15()


class TestWorkClass:
    def test_rejects_zero_compute_fraction(self):
        with pytest.raises(ValueError):
            WorkClass("w", compute_fraction=0.0)

    def test_rejects_compute_fraction_above_one(self):
        with pytest.raises(ValueError):
            WorkClass("w", compute_fraction=1.5)

    def test_rejects_bad_ilp(self):
        with pytest.raises(ValueError):
            WorkClass("w", ilp=1.2)
        with pytest.raises(ValueError):
            WorkClass("w", ilp=-0.1)

    def test_hash_is_the_field_hash_and_survives_pickle(self):
        import pickle

        work = WorkClass("w", compute_fraction=0.7, wss_kb=300, ilp=0.4)
        fields = ("w", 0.7, 300, 0.4, 1.0)
        assert hash(work) == hash(fields)
        clone = pickle.loads(pickle.dumps(work))
        assert clone == work and hash(clone) == hash(work)
        assert {work: 1}[clone] == 1

    def test_effective_ipc_interpolates(self):
        full = WorkClass("full", ilp=1.0)
        none = WorkClass("none", ilp=0.0)
        half = WorkClass("half", ilp=0.5)
        assert full.effective_ipc_ratio(A15) == pytest.approx(1.8)
        assert none.effective_ipc_ratio(A15) == pytest.approx(1.0)
        assert half.effective_ipc_ratio(A15) == pytest.approx(1.4)

    def test_little_core_unaffected_by_ilp(self):
        assert WorkClass("w", ilp=0.0).effective_ipc_ratio(A7) == 1.0
        assert WorkClass("w", ilp=1.0).effective_ipc_ratio(A7) == 1.0


class TestThroughputNormalization:
    def test_little_at_reference_is_one_unit_per_second(self):
        # The work-unit definition: little core @ 1.3GHz, compute-bound.
        assert throughput_units_per_sec(A7, F_REF_KHZ, COMPUTE_BOUND) == pytest.approx(1.0)

    def test_throughput_scales_with_frequency_for_compute(self):
        t_full = throughput_units_per_sec(A7, 1_300_000, COMPUTE_BOUND)
        t_half = throughput_units_per_sec(A7, 650_000, COMPUTE_BOUND)
        assert t_full / t_half == pytest.approx(2.0)

    def test_memory_component_does_not_scale_with_frequency(self):
        memory_bound = WorkClass("mem", compute_fraction=0.2, wss_kb=64)
        t_full = throughput_units_per_sec(A7, 1_300_000, memory_bound)
        t_half = throughput_units_per_sec(A7, 650_000, memory_bound)
        # Far less than 2x because 80% of time is frequency-independent.
        assert 1.0 < t_full / t_half < 1.3

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            seconds_per_unit(A7, 0, COMPUTE_BOUND)


class TestPaperSpeedupShape:
    """Section III.A findings the model must reproduce."""

    def test_big_always_faster_at_equal_frequency(self):
        for work in [
            COMPUTE_BOUND,
            WorkClass("mem", compute_fraction=0.3, wss_kb=1800),
            WorkClass("lowilp", ilp=0.2),
        ]:
            assert speedup(A15, 1_300_000, A7, 1_300_000, work) > 1.0

    def test_compute_bound_speedup_is_ipc_ratio(self):
        assert speedup(A15, 1_300_000, A7, 1_300_000, COMPUTE_BOUND) == pytest.approx(1.8)

    def test_cache_sensitive_speedup_up_to_4_5x(self):
        cache_hungry = WorkClass("cache", compute_fraction=0.15, wss_kb=2000)
        s = speedup(A15, 1_300_000, A7, 1_300_000, cache_hungry)
        assert 4.0 < s < 5.0

    def test_low_ilp_slower_on_big_at_min_frequency(self):
        # The paper's three kernels that lose on big @ 0.8GHz vs little @ 1.3.
        branchy = WorkClass("branchy", compute_fraction=0.97, ilp=0.25)
        assert speedup(A15, 800_000, A7, 1_300_000, branchy) < 1.0

    def test_high_ilp_still_faster_on_big_at_min_frequency(self):
        vectorized = WorkClass("vec", compute_fraction=0.98, ilp=0.95)
        assert speedup(A15, 800_000, A7, 1_300_000, vectorized) > 1.0

    def test_speedup_monotonic_in_big_frequency(self):
        speeds = [
            speedup(A15, f, A7, 1_300_000, COMPUTE_BOUND)
            for f in (800_000, 1_300_000, 1_900_000)
        ]
        assert speeds == sorted(speeds)
