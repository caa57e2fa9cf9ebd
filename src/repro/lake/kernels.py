"""RLE-native query kernels: trace aggregates without densification.

Every kernel consumes :class:`~repro.sim.traceio.RLETrace` run-lengths
directly.  Cost is O(total runs), not O(ticks) — a 60 s cached trace has
tens of thousands fewer runs than ticks, so cross-run queries over
hundreds of cache entries stay interactive while dense inflation would
cost gigabytes.  No kernel ever calls ``to_trace()``; the
``trace.materializations`` counter (incremented inside
:meth:`RLETrace.to_trace`) proves it, and CI's traced run of the
``bench/`` ``lake`` workload asserts the counter stays flat across a
full query pass.

Bit-equality contract: each kernel has a dense twin (``dense_*`` here,
or the existing :func:`repro.core.residency.frequency_residency`) and
``tests/test_lake_kernels.py`` asserts kernel(rle) == twin(rle.to_trace())
exactly — integer tick counts are combined identically, percentages use
the same final expression, and float sums go through :func:`math.fsum`
on both sides.  ``fsum`` returns the correctly-rounded sum of its real
inputs, and each per-run product ``float32_value * run_length`` is exact
in float64 (24-bit significand × run length < 2^53), so summing per-run
products and summing per-tick values round to the same float.

Kernels run once per cache entry, at store time:
:func:`trace_summary` bundles every kernel's mergeable output and
``ResultCache.store`` writes it into ``result.json``, where the catalog
picks it up.  Lake queries fold those summaries and never open a trace
file; an entry written before 1.3.0 without one contributes scalars only.

The multi-row kernels need per-tick conjunctions of *independently*
run-length-encoded rows (e.g. "any core of the cluster busy").  That is
:func:`merge_segments`: the union of all rows' run boundaries splits the
timeline into piecewise-constant segments, each row contributing one
value per segment — still O(runs), never O(ticks).
"""

from __future__ import annotations

from math import fsum
from typing import Any, Sequence

import numpy as np

from repro.obs.metrics import global_metrics
from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace
from repro.sim.traceio import RLEColumn, RLETrace

__all__ = [
    "merge_segments",
    "residency",
    "residency_counts",
    "freq_histogram",
    "migrations",
    "cluster_energy",
    "dense_freq_histogram",
    "dense_migrations",
    "dense_cluster_energy",
    "kernel_aggregates",
    "trace_summary",
]


def _kernel_run(name: str) -> None:
    reg = global_metrics()
    reg.counter("lake.kernel_runs").inc()
    reg.counter(f"lake.kernel.{name}").inc()


def _column_rows(col: RLEColumn) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a (possibly multi-row) RLE column into per-row (values, lengths)."""
    rows = []
    start = 0
    for n_runs in col.row_splits:
        stop = start + int(n_runs)
        rows.append((col.values[start:stop], col.lengths[start:stop]))
        start = stop
    return rows


def merge_segments(
    rows: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Align independently-encoded RLE rows on common segment boundaries.

    ``rows`` is a sequence of ``(values, lengths)`` pairs that all cover
    the same number of ticks.  Returns ``(seg_values, seg_lengths)``
    where ``seg_lengths`` are the lengths of the union-of-boundaries
    segments and ``seg_values[i]`` is row *i*'s constant value on each
    segment.  Work is O(total runs · log total runs) and the output has
    at most ``sum(len(lengths))`` segments — tick count never appears.
    """
    ends_per_row = [np.cumsum(lengths) for _, lengths in rows]
    all_ends = np.unique(np.concatenate(ends_per_row))
    seg_lengths = np.diff(np.concatenate((np.zeros(1, dtype=np.int64), all_ends)))
    seg_values = [
        values[np.searchsorted(ends, all_ends, side="left")]
        for (values, _), ends in zip(rows, ends_per_row)
    ]
    return seg_values, seg_lengths


def _cluster_row_indices(rle: RLETrace, core_type: CoreType) -> list[int]:
    return [i for i, t in enumerate(rle.core_types) if t is core_type]


def _freq_row(rle: RLETrace, core_type: CoreType) -> tuple[np.ndarray, np.ndarray]:
    rows = _column_rows(rle.columns["freq"])
    return rows[0 if core_type is CoreType.LITTLE else 1]


def _group_ticks(values: np.ndarray, lengths: np.ndarray) -> dict[int, int]:
    """Sum run lengths per distinct value (the RLE group-by primitive)."""
    uniq, inverse = np.unique(values, return_inverse=True)
    ticks = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(ticks, inverse, lengths)
    return {int(v): int(t) for v, t in zip(uniq, ticks)}


# ---------------------------------------------------------------------------
# Frequency residency (Figures 9/10 shape)
# ---------------------------------------------------------------------------


def residency_counts(
    rle: RLETrace, core_type: CoreType
) -> tuple[dict[int, int], int]:
    """Active ticks per OPP of one cluster: ``({khz: ticks}, n_active)``.

    The mergeable form of :func:`residency` — cross-run aggregation sums
    the tick counts and totals, then derives combined percentages.  A
    tick is active when any core of the cluster executed during it,
    exactly as :func:`repro.core.residency.frequency_residency` defines
    it on dense traces.
    """
    _kernel_run("residency")
    core_rows = _cluster_row_indices(rle, core_type)
    if not core_rows or rle.n_ticks == 0:
        return {}, 0
    busy_rows = _column_rows(rle.columns["busy"])
    merged_rows = [busy_rows[i] for i in core_rows]
    merged_rows.append(_freq_row(rle, core_type))
    seg_values, seg_lengths = merge_segments(merged_rows)
    active = (np.stack(seg_values[:-1]) > 0.0).any(axis=0)
    if not active.any():
        return {}, 0
    freqs = seg_values[-1][active]
    lengths = seg_lengths[active]
    return _group_ticks(freqs, lengths), int(lengths.sum())


def residency(rle: RLETrace, core_type: CoreType) -> dict[int, float]:
    """Percentage of active ticks at each frequency (kHz -> %).

    Bit-equal to ``frequency_residency(rle.to_trace(), core_type)``:
    counts are integers and the percentage expression is identical.
    """
    counts, n_active = residency_counts(rle, core_type)
    if n_active == 0:
        return {}
    return {khz: 100.0 * ticks / n_active for khz, ticks in counts.items()}


# ---------------------------------------------------------------------------
# Frequency histogram (ticks per OPP, idle included)
# ---------------------------------------------------------------------------


def freq_histogram(rle: RLETrace, core_type: CoreType) -> dict[int, int]:
    """Total ticks spent at each OPP of one cluster (kHz -> ticks)."""
    _kernel_run("freq_histogram")
    if rle.n_ticks == 0:
        return {}
    values, lengths = _freq_row(rle, core_type)
    return _group_ticks(values, lengths)


def dense_freq_histogram(trace: Trace, core_type: CoreType) -> dict[int, int]:
    """Dense twin of :func:`freq_histogram` (golden-test reference)."""
    if len(trace) == 0:
        return {}
    values, counts = np.unique(trace.freq_khz(core_type), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


# ---------------------------------------------------------------------------
# Cluster migrations
# ---------------------------------------------------------------------------


def _cluster_states(
    active_little: np.ndarray, active_big: np.ndarray
) -> np.ndarray:
    """Per-sample cluster state: 0 idle, 1 little-only, 2 big-active."""
    return np.where(active_big, 2, np.where(active_little, 1, 0))


def _count_transitions(states: np.ndarray) -> dict[str, int]:
    """Up/down transitions of the non-idle state sequence.

    Idle gaps are skipped: work that pauses and resumes on the same
    cluster is not a migration, matching how the paper discusses
    residency moves between the clusters rather than wake-ups.
    """
    nonidle = states[states != 0]
    if nonidle.size < 2:
        return {"up": 0, "down": 0, "total": 0}
    prev, cur = nonidle[:-1], nonidle[1:]
    up = int(np.count_nonzero((prev == 1) & (cur == 2)))
    down = int(np.count_nonzero((prev == 2) & (cur == 1)))
    return {"up": up, "down": down, "total": up + down}


def migrations(rle: RLETrace) -> dict[str, int]:
    """Cluster-migration counts: little→big (``up``) and big→little (``down``).

    Derived from per-core busy runs: a migration is a boundary where the
    active cluster state flips between little-only and big-active,
    ignoring fully-idle gaps.  Per-segment states compress runs of equal
    state for free, so expanding to ticks would change nothing — which
    is exactly why the kernel is bit-equal to :func:`dense_migrations`.
    """
    _kernel_run("migrations")
    if rle.n_ticks == 0 or not rle.core_types:
        return {"up": 0, "down": 0, "total": 0}
    little_rows = _cluster_row_indices(rle, CoreType.LITTLE)
    big_rows = _cluster_row_indices(rle, CoreType.BIG)
    busy_rows = _column_rows(rle.columns["busy"])
    seg_values, _ = merge_segments(busy_rows)
    stacked = np.stack(seg_values) > 0.0
    n_segments = stacked.shape[1]
    active_little = (
        stacked[little_rows].any(axis=0)
        if little_rows else np.zeros(n_segments, dtype=bool)
    )
    active_big = (
        stacked[big_rows].any(axis=0)
        if big_rows else np.zeros(n_segments, dtype=bool)
    )
    return _count_transitions(_cluster_states(active_little, active_big))


def dense_migrations(trace: Trace) -> dict[str, int]:
    """Dense twin of :func:`migrations` (golden-test reference)."""
    if len(trace) == 0 or trace.n_cores == 0:
        return {"up": 0, "down": 0, "total": 0}
    busy = trace.busy > 0.0
    little_rows = trace.cores_of_type(CoreType.LITTLE)
    big_rows = trace.cores_of_type(CoreType.BIG)
    n = busy.shape[1]
    active_little = (
        busy[little_rows].any(axis=0) if little_rows else np.zeros(n, dtype=bool)
    )
    active_big = (
        busy[big_rows].any(axis=0) if big_rows else np.zeros(n, dtype=bool)
    )
    return _count_transitions(_cluster_states(active_little, active_big))


# ---------------------------------------------------------------------------
# Per-cluster energy
# ---------------------------------------------------------------------------


def _fsum_runs(values: np.ndarray, lengths: np.ndarray) -> float:
    """Exactly-rounded sum of an RLE row's per-tick values.

    ``float(v) * int(l)`` is exact in float64 for float32 values and any
    realistic run length (< 2^29 ticks), so :func:`math.fsum` over the
    per-run products equals :func:`math.fsum` over the inflated ticks.
    """
    return fsum(float(v) * int(l) for v, l in zip(values, lengths))


def cluster_energy(rle: RLETrace) -> dict[str, float]:
    """Energy in mJ: per cluster (CPU power) and system-wide.

    Bit-equal to :func:`dense_cluster_energy` on the inflated trace —
    both sides are correctly-rounded float64 sums of the same per-tick
    power values, scaled by the tick length.
    """
    _kernel_run("cluster_energy")
    cpu_rows = _column_rows(rle.columns["cpu_power"])
    power_rows = _column_rows(rle.columns["power"])
    return {
        "little_mj": _fsum_runs(*cpu_rows[0]) * rle.tick_s,
        "big_mj": _fsum_runs(*cpu_rows[1]) * rle.tick_s,
        "system_mj": _fsum_runs(*power_rows[0]) * rle.tick_s,
    }


def dense_cluster_energy(trace: Trace) -> dict[str, float]:
    """Dense twin of :func:`cluster_energy` (golden-test reference).

    Uses :func:`math.fsum` per tick rather than ``float32`` pairwise
    summation, so it is the exactly-rounded value the RLE kernel must
    reproduce (``Trace.energy_mj`` agrees to float32 precision).
    """
    return {
        "little_mj": fsum(
            float(x) for x in trace.cpu_power_mw(CoreType.LITTLE)
        ) * trace.tick_s,
        "big_mj": fsum(
            float(x) for x in trace.cpu_power_mw(CoreType.BIG)
        ) * trace.tick_s,
        "system_mj": fsum(float(x) for x in trace.power_mw) * trace.tick_s,
    }


def kernel_aggregates(rle: RLETrace) -> dict[str, Any]:
    """Every kernel over one trace — the per-entry unit of a lake query."""
    return {
        "residency_little": residency_counts(rle, CoreType.LITTLE),
        "residency_big": residency_counts(rle, CoreType.BIG),
        "freq_hist_little": freq_histogram(rle, CoreType.LITTLE),
        "freq_hist_big": freq_histogram(rle, CoreType.BIG),
        "migrations": migrations(rle),
        "energy": cluster_energy(rle),
    }


def trace_summary(rle: RLETrace) -> dict[str, Any]:
    """:func:`kernel_aggregates` plus the trace duration, in JSON form.

    The per-entry ``trace_summary`` of ``result.json`` and the catalog.
    OPP keys are strings and residency pairs are ``[counts, n_active]``
    lists — what a JSON round trip yields anyway — so a summary held in
    memory and one read back from disk are interchangeable.
    ``duration_s`` is ``n_ticks * tick_s``; floats survive JSON exactly.
    """
    aggs = kernel_aggregates(rle)
    summary: dict[str, Any] = {"duration_s": rle.n_ticks * rle.tick_s}
    for key, value in aggs.items():
        if key.startswith("residency_"):
            counts, n_active = value
            value = [{str(khz): t for khz, t in counts.items()}, n_active]
        elif key.startswith("freq_hist_"):
            value = {str(khz): t for khz, t in value.items()}
        summary[key] = value
    return summary
