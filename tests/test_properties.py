"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.efficiency import efficiency_breakdown
from repro.core.tlp import tlp_stats
from repro.core.tlp_matrix import tlp_matrix
from repro.platform.cache import memory_time_factor, miss_ratio
from repro.platform.coretypes import CoreType, cortex_a7, cortex_a15
from repro.platform.opp import linear_voltage_table
from repro.platform.perfmodel import (
    WorkClass,
    cached_throughput,
    throughput_units_per_sec,
)
from repro.platform.power import PowerModel
from repro.sched.load import LoadTracker
from repro.sim.core import ThroughputTable
from repro.sim.trace import Trace
from repro.units import LOAD_SCALE

A7, A15 = cortex_a7(), cortex_a15()

work_classes = st.builds(
    WorkClass,
    name=st.just("w"),
    compute_fraction=st.floats(0.05, 1.0),
    wss_kb=st.floats(0.0, 8192.0),
    ilp=st.floats(0.0, 1.0),
    activity_factor=st.floats(0.5, 2.0),
)

little_freqs = st.integers(500_000, 1_300_000)
big_freqs = st.integers(800_000, 1_900_000)


class TestCacheModelProperties:
    @given(l2=st.integers(64, 4096), wss=st.floats(0, 100_000))
    def test_miss_ratio_bounded(self, l2, wss):
        assert 0.0 <= miss_ratio(l2, wss) < 1.0

    @given(l2=st.integers(64, 4096), wss=st.floats(0, 100_000),
           penalty=st.floats(0, 20))
    def test_memory_factor_at_least_one(self, l2, wss, penalty):
        assert memory_time_factor(l2, wss, penalty) >= 1.0

    @given(wss=st.floats(1, 100_000))
    def test_bigger_cache_never_worse(self, wss):
        assert miss_ratio(2048, wss) <= miss_ratio(512, wss)


class TestPerfModelProperties:
    @given(work=work_classes, freq=little_freqs)
    def test_throughput_positive(self, work, freq):
        assert throughput_units_per_sec(A7, freq, work) > 0

    @given(work=work_classes)
    def test_big_never_slower_at_equal_frequency(self, work):
        little = throughput_units_per_sec(A7, 1_300_000, work)
        big = throughput_units_per_sec(A15, 1_300_000, work)
        assert big >= little - 1e-12

    @given(work=work_classes, f1=little_freqs, f2=little_freqs)
    def test_throughput_monotonic_in_frequency(self, work, f1, f2):
        lo, hi = min(f1, f2), max(f1, f2)
        assert (
            throughput_units_per_sec(A7, hi, work)
            >= throughput_units_per_sec(A7, lo, work) - 1e-12
        )

    @given(work=work_classes, freq=little_freqs)
    def test_frequency_scaling_sublinear(self, work, freq):
        """Doubling frequency can at most double throughput."""
        t1 = throughput_units_per_sec(A7, freq, work)
        t2 = throughput_units_per_sec(A7, 2 * freq, work)
        assert t2 <= 2 * t1 * (1 + 1e-9)


class TestThroughputTableProperties:
    """``SimCore``'s per-(freq, contention) throughput table."""

    @settings(max_examples=50)
    @given(
        works=st.lists(work_classes, min_size=1, max_size=4),
        big=st.booleans(),
        freq=little_freqs,
        contention=st.floats(1.0, 2.0),
    )
    def test_equal_work_classes_share_one_entry(self, works, big, freq, contention):
        core = A15 if big else A7
        table = ThroughputTable(core, freq, contention)
        for work in works:
            twin = WorkClass(
                work.name, work.compute_fraction, work.wss_kb, work.ilp,
                work.activity_factor,
            )
            assert twin == work and twin is not work
            assert hash(twin) == hash(work)
            value = table[work]
            size = len(table)
            assert table[twin] == value
            assert len(table) == size  # the twin hit the same entry
            assert value == cached_throughput(core, freq, work, contention)
            assert value == cached_throughput(core, freq, twin, contention)
        assert len(table) == len(set(works))


class TestPowerModelProperties:
    @given(freq=big_freqs, v=st.floats(0.8, 1.4),
           u1=st.floats(0, 1), u2=st.floats(0, 1))
    def test_power_monotonic_in_utilization(self, freq, v, u1, u2):
        pm = PowerModel()
        lo, hi = min(u1, u2), max(u1, u2)
        p_lo = pm.core_power_mw(CoreType.BIG, freq, v, lo)
        p_hi = pm.core_power_mw(CoreType.BIG, freq, v, hi)
        assert p_hi >= p_lo - 1e-9

    @given(v=st.floats(0.8, 1.4), u=st.floats(0, 1),
           f1=big_freqs, f2=big_freqs)
    def test_power_monotonic_in_frequency(self, v, u, f1, f2):
        pm = PowerModel()
        lo, hi = min(f1, f2), max(f1, f2)
        assert pm.core_power_mw(CoreType.BIG, hi, v, u) >= pm.core_power_mw(
            CoreType.BIG, lo, v, u
        ) - 1e-9

    @given(freq=little_freqs, v=st.floats(0.8, 1.4), u=st.floats(0, 1))
    def test_little_cheaper_than_big_same_point(self, freq, v, u):
        pm = PowerModel()
        assert pm.core_power_mw(CoreType.LITTLE, freq, v, u) <= pm.core_power_mw(
            CoreType.BIG, freq, v, u
        )


class TestOPPTableProperties:
    @given(
        start=st.integers(100_000, 1_000_000),
        steps=st.integers(1, 20),
        step=st.integers(50_000, 200_000),
        query=st.integers(1, 3_000_000),
    )
    def test_ceil_floor_are_valid_points(self, start, steps, step, query):
        table = linear_voltage_table(start, start + steps * step, step, 0.9, 1.3)
        assert table.contains(table.ceil(query))
        assert table.contains(table.floor(query))
        assert table.floor(query) <= table.ceil(query) or query > table.max_khz

    @given(
        start=st.integers(100_000, 1_000_000),
        steps=st.integers(1, 20),
        step=st.integers(50_000, 200_000),
        query=st.integers(100_000, 3_000_000),
    )
    def test_ceil_is_least_upper_point(self, start, steps, step, query):
        table = linear_voltage_table(start, start + steps * step, step, 0.9, 1.3)
        ceil = table.ceil(query)
        if query <= table.max_khz:
            assert ceil >= query
            below = [f for f in table.frequencies_khz if f >= query]
            assert ceil == below[0]


class TestLoadTrackerProperties:
    @given(samples=st.lists(st.floats(0, LOAD_SCALE), min_size=1, max_size=200),
           halflife=st.floats(1.0, 128.0))
    def test_value_stays_in_range(self, samples, halflife):
        tracker = LoadTracker(halflife_ms=halflife)
        for s in samples:
            v = tracker.advance(s, 1)
            assert 0.0 <= v <= LOAD_SCALE

    @given(initial=st.floats(0, LOAD_SCALE), ticks=st.integers(0, 1000))
    def test_decay_never_increases(self, initial, ticks):
        tracker = LoadTracker(initial=initial)
        assert tracker.decay(ticks) <= initial + 1e-9

    @given(
        initial=st.floats(0, LOAD_SCALE),
        segments=st.lists(
            st.tuples(st.floats(0, LOAD_SCALE), st.integers(0, 80)),
            min_size=1, max_size=5,
        ),
        threshold=st.floats(0, LOAD_SCALE),
        rising=st.booleans(),
        halflife=st.floats(1.0, 128.0),
    )
    def test_first_crossing_matches_tick_by_tick_fold(
        self, initial, segments, threshold, rising, halflife
    ):
        """The dry run, chained over constant-sample segments as the span
        probe chains it, stops at the tick and on the value that folding
        ``advance(s, 1)`` tick by tick and testing the threshold does,
        and commits nothing."""

        def crossed(v):
            return v > threshold if rising else v < threshold

        folded = LoadTracker(halflife_ms=halflife, initial=initial)
        expected = None
        offset = 0
        for sample, ticks in segments:
            for j in range(ticks):
                v = folded.advance(sample, 1)
                if crossed(v):
                    expected = (offset + j, v)
                    break
            if expected is not None:
                break
            offset += ticks
        if expected is None:
            expected = (offset, folded.value)

        tracker = LoadTracker(halflife_ms=halflife, initial=initial)
        got = None
        offset = 0
        v = tracker.value
        for sample, ticks in segments:
            j, v = tracker.first_crossing(sample, ticks, threshold, rising, v)
            if j < ticks:
                got = (offset + j, v)
                break
            offset += ticks
        if got is None:
            got = (offset, v)
        assert got == expected  # exact, no tolerance
        assert tracker.value == initial

    @given(samples=st.lists(st.floats(0, LOAD_SCALE), min_size=1, max_size=100))
    def test_value_bounded_by_max_sample(self, samples):
        tracker = LoadTracker()
        for s in samples:
            tracker.advance(s, 1)
        assert tracker.value <= max(samples) + 1e-9


@st.composite
def activity_traces(draw):
    n_windows = draw(st.integers(1, 30))
    n_little = 4
    n_big = 4
    types = [CoreType.LITTLE] * n_little + [CoreType.BIG] * n_big
    trace = Trace(types, [True] * 8, max_ticks=n_windows * 10)
    for _ in range(n_windows):
        busy = [
            draw(st.sampled_from([0.0, 0.3, 1.0])) for _ in range(n_little + n_big)
        ]
        lf = draw(st.sampled_from([500_000, 900_000, 1_300_000]))
        bf = draw(st.sampled_from([800_000, 1_300_000, 1_900_000]))
        for _ in range(10):
            trace.record(busy, lf, bf, 500.0)
    trace.finalize()
    return trace


class TestAnalysisInvariants:
    @settings(max_examples=30)
    @given(trace=activity_traces())
    def test_matrix_sums_to_100(self, trace):
        assert abs(tlp_matrix(trace).sum() - 100.0) < 1e-6

    @settings(max_examples=30)
    @given(trace=activity_traces())
    def test_efficiency_is_partition(self, trace):
        b = efficiency_breakdown(trace, 500_000, 1_900_000)
        assert abs(sum(b.as_row()) - 100.0) < 1e-6

    @settings(max_examples=30)
    @given(trace=activity_traces())
    def test_tlp_consistent_with_matrix(self, trace):
        """Table III must always be derivable from Table IV."""
        stats = tlp_stats(trace)
        matrix = tlp_matrix(trace)
        idle = matrix[0, 0]
        little = sum(l * matrix[b, l] for b in range(5) for l in range(5))
        big = sum(b * matrix[b, l] for b in range(5) for l in range(5))
        assert math.isclose(stats.idle_pct, idle, abs_tol=1e-6)
        if little + big > 0:
            assert math.isclose(
                stats.tlp, (little + big) / (100.0 - idle), rel_tol=1e-9
            )
            assert math.isclose(
                stats.big_active_pct, 100.0 * big / (little + big), abs_tol=1e-6
            )

    @settings(max_examples=30)
    @given(trace=activity_traces())
    def test_tlp_bounded_by_core_count(self, trace):
        stats = tlp_stats(trace)
        assert 0.0 <= stats.tlp <= 8.0
        assert 0.0 <= stats.idle_pct <= 100.0
