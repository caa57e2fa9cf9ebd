"""Composable queries over the lake catalog: where / group_by / agg.

A :class:`LakeQuery` filters catalog entries, groups them on catalog
dimensions, and folds each group through scalar aggregates (over the
metrics stored in the catalog — no trace I/O) and/or **kernel
aggregates** (over the cached RLE traces, via :mod:`repro.lake.kernels`
— no densification).  Example, the Table V shape from cache alone::

    rows = (
        LakeQuery(catalog)
        .where(workload="bbench")
        .group_by("scheduler", "version")
        .agg("count", "mean:avg_power_mw", "migrations", "residency:big")
        .run()
    )
    print(rows.render())

Aggregate specs:

``count``
    entries in the group.
``mean:F`` / ``sum:F`` / ``min:F`` / ``max:F``
    over the scalar metric ``F`` stored in the catalog
    (``avg_power_mw``, ``energy_mj``, ``duration_s``, ``metric``, …).
``residency:little`` / ``residency:big``
    aggregate frequency residency — per-entry active-tick counts are
    summed across the group, then turned into percentages, so the group
    answer weights runs by their active time exactly as one concatenated
    trace would.
``freq_hist:little`` / ``freq_hist:big``
    total ticks per OPP, summed across the group.
``migrations``
    summed up/down cluster-migration counts plus a ``per_s`` rate over
    the group's total trace duration.
``energy``
    per-cluster and system energy (mJ), :func:`math.fsum`-combined.

Kernel aggregates fold each entry's ``trace_summary`` — the kernel
outputs computed once, when ``ResultCache.store`` wrote the entry — so
a query costs O(catalog lines) and opens no trace file.  An entry stored
without a summary (by an older version) gets one computed on the spot
from its trace file, counted in ``lake.query.trace_loads``: RLE files
feed the kernels directly (``LazyTrace.rle`` — never inflated), the
dense ``.npz`` files of versions up to 1.2.1 are re-encoded in memory
via :meth:`RLETrace.from_trace`.
A trace file that cannot be read is skipped with a warning and counted
in ``lake.query.corrupt``; entries with no trace
(``trace_policy="none"``) are skipped and counted in
``lake.query.skipped_no_trace``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import fsum
from typing import Any, Optional

from repro.lake.catalog import Catalog, CatalogEntry
from repro.lake.kernels import trace_summary
from repro.obs.logsetup import get_logger
from repro.obs.metrics import global_metrics
from repro.sim.traceio import (
    TRACE_READ_ERRORS,
    LazyTrace,
    RLETrace,
    load_trace_lazy,
)

log = get_logger("lake.query")

__all__ = ["LakeQuery", "QueryResult", "SCALAR_AGGS", "KERNEL_AGGS"]

SCALAR_AGGS = ("count", "mean", "sum", "min", "max")
KERNEL_AGGS = (
    "residency:little", "residency:big",
    "freq_hist:little", "freq_hist:big",
    "migrations", "energy",
)


def _entry_rle(entry: CatalogEntry, root: str) -> Optional[RLETrace]:
    """The entry's trace in RLE form, or ``None`` if it stored no trace.

    RLE files never inflate (the lazy proxy hands over its payload);
    dense ``.npz`` files (written up to version 1.2.1) are *encoded* — ``RLETrace.from_trace`` reads
    the stored arrays but builds run-lengths, it does not count as a
    materialization (nothing RLE existed to densify).
    """
    entry_dir = os.path.join(root, entry.version, entry.spec_key)
    if entry.trace_format is not None:
        global_metrics().counter("lake.query.trace_loads").inc()
    if entry.trace_format == "rle":
        trace = load_trace_lazy(os.path.join(entry_dir, "trace.rle"))
        assert isinstance(trace, LazyTrace)
        return trace.rle
    if entry.trace_format == "npz":
        from repro.sim.traceio import load_trace

        return RLETrace.from_trace(load_trace(os.path.join(entry_dir, "trace.npz")))
    return None


def _entry_summary(entry: CatalogEntry, root: str) -> Optional[dict[str, Any]]:
    """The entry's kernel aggregates, or ``None`` if it stored no trace.

    Read from the catalog when the entry has a ``trace_summary``;
    otherwise computed from the trace file, which raises one of
    :data:`~repro.sim.traceio.TRACE_READ_ERRORS` if the file is corrupt.
    """
    if entry.trace_summary is not None:
        return entry.trace_summary
    rle = _entry_rle(entry, root)
    return trace_summary(rle) if rle is not None else None


def _merge_khz(acc: dict[int, int], counts: dict[Any, int]) -> None:
    """Add per-OPP tick counts into ``acc``, keyed by integer kHz.

    Summary keys are JSON strings; sorting them as strings would put
    1000000 before 800000.
    """
    for khz, ticks in counts.items():
        key = int(khz)
        acc[key] = acc.get(key, 0) + ticks


class _KernelAcc:
    """Cross-entry accumulator for one group's kernel aggregates."""

    def __init__(self, specs: list[str]):
        self.specs = specs
        self.entries = 0
        self.skipped = 0
        self.corrupt = 0
        self.duration_s = 0.0
        self.residency: dict[str, tuple[dict[int, int], int]] = {
            "little": ({}, 0), "big": ({}, 0),
        }
        self.freq_hist: dict[str, dict[int, int]] = {"little": {}, "big": {}}
        self.migrations = {"up": 0, "down": 0, "total": 0}
        self.energy: dict[str, list[float]] = {
            "little_mj": [], "big_mj": [], "system_mj": [],
        }

    def add(self, summary: dict[str, Any]) -> None:
        self.entries += 1
        self.duration_s += summary["duration_s"]
        for cluster in ("little", "big"):
            if f"residency:{cluster}" in self.specs:
                counts, n_active = summary[f"residency_{cluster}"]
                acc, total = self.residency[cluster]
                _merge_khz(acc, counts)
                self.residency[cluster] = (acc, total + n_active)
            if f"freq_hist:{cluster}" in self.specs:
                _merge_khz(self.freq_hist[cluster], summary[f"freq_hist_{cluster}"])
        if "migrations" in self.specs:
            m = summary["migrations"]
            for k in ("up", "down", "total"):
                self.migrations[k] += m[k]
        if "energy" in self.specs:
            e = summary["energy"]
            for k, parts in self.energy.items():
                parts.append(e[k])

    def results(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for cluster in ("little", "big"):
            spec = f"residency:{cluster}"
            if spec in self.specs:
                counts, n_active = self.residency[cluster]
                out[spec] = {
                    str(khz): 100.0 * ticks / n_active
                    for khz, ticks in sorted(counts.items())
                } if n_active else {}
            spec = f"freq_hist:{cluster}"
            if spec in self.specs:
                out[spec] = {
                    str(khz): ticks
                    for khz, ticks in sorted(self.freq_hist[cluster].items())
                }
        if "migrations" in self.specs:
            m = dict(self.migrations)
            m["per_s"] = (
                m["total"] / self.duration_s if self.duration_s > 0 else 0.0
            )
            out["migrations"] = m
        if "energy" in self.specs:
            out["energy"] = {k: fsum(parts) for k, parts in self.energy.items()}
        return out


def _scalar_agg(op: str, field: str, entries: list[CatalogEntry]) -> Optional[float]:
    values = [
        float(e.metrics[field])
        for e in entries
        if isinstance(e.metrics.get(field), (int, float))
    ]
    if not values:
        return None
    if op == "mean":
        return fsum(values) / len(values)
    if op == "sum":
        return fsum(values)
    if op == "min":
        return min(values)
    return max(values)


@dataclass
class QueryResult:
    """Rows produced by :meth:`LakeQuery.run`."""

    group_dims: tuple[str, ...]
    agg_specs: tuple[str, ...]
    rows: list[dict[str, Any]]
    skipped_no_trace: int = 0
    #: Entries whose trace file could not be read (skipped, not fatal).
    corrupt: int = 0

    def to_jsonable(self) -> dict[str, Any]:
        payload = {
            "group_by": list(self.group_dims),
            "agg": list(self.agg_specs),
            "rows": self.rows,
            "skipped_no_trace": self.skipped_no_trace,
        }
        if self.corrupt:  # absent when clean: clean queries' JSON is unchanged
            payload["corrupt"] = self.corrupt
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    def render(self, title: str = "") -> str:
        from repro.core.report import render_table

        def cell(value: Any) -> Any:
            if isinstance(value, dict):
                return " ".join(
                    f"{k}:{v:.1f}" if isinstance(v, float) else f"{k}:{v}"
                    for k, v in value.items()
                ) or "-"
            if value is None:
                return "-"
            return value

        headers = list(self.group_dims) + list(self.agg_specs)
        table_rows = [
            [cell(row.get(h)) for h in headers] for row in self.rows
        ]
        text = render_table(headers, table_rows, title=title, float_fmt="{:.3f}")
        if self.skipped_no_trace:
            text += (
                f"\n({self.skipped_no_trace} entries without a stored trace "
                "skipped by kernel aggregates)"
            )
        if self.corrupt:
            text += (
                f"\n({self.corrupt} entries with an unreadable trace file "
                "skipped by kernel aggregates)"
            )
        return text


class LakeQuery:
    """Immutable builder: each ``where``/``group_by``/``agg`` returns a copy."""

    def __init__(
        self,
        catalog: Catalog,
        _filters: Optional[dict[str, Any]] = None,
        _groups: tuple[str, ...] = (),
        _aggs: tuple[str, ...] = ("count",),
    ):
        self.catalog = catalog
        self._filters = dict(_filters or {})
        self._groups = _groups
        self._aggs = _aggs

    def where(self, **dims: Any) -> "LakeQuery":
        """Keep entries whose dimension equals the given value.

        Values compare as strings except for numeric dimensions, so CLI
        ``--where seed=7`` and Python ``where(seed=7)`` agree.
        """
        merged = {**self._filters, **dims}
        return LakeQuery(self.catalog, merged, self._groups, self._aggs)

    def group_by(self, *dims: str) -> "LakeQuery":
        return LakeQuery(self.catalog, self._filters, tuple(dims), self._aggs)

    def agg(self, *specs: str) -> "LakeQuery":
        for spec in specs:
            op = spec.split(":", 1)[0]
            if spec not in KERNEL_AGGS and op not in SCALAR_AGGS:
                raise ValueError(
                    f"unknown aggregate {spec!r}; scalar ops: "
                    f"{', '.join(SCALAR_AGGS)} (e.g. mean:avg_power_mw); "
                    f"kernel aggs: {', '.join(KERNEL_AGGS)}"
                )
        return LakeQuery(self.catalog, self._filters, self._groups, tuple(specs))

    # -- execution ---------------------------------------------------------

    @staticmethod
    def _match(entry: CatalogEntry, name: str, want: Any) -> bool:
        have = entry.dim(name)
        if have == want:
            return True
        return str(have) == str(want)

    def _select(self) -> list[CatalogEntry]:
        entries = self.catalog.load()
        for name, want in self._filters.items():
            entries = [e for e in entries if self._match(e, name, want)]
        return entries

    def run(self) -> QueryResult:
        reg = global_metrics()
        reg.counter("lake.queries").inc()
        entries = self._select()
        reg.counter("lake.query.entries").inc(len(entries))

        groups: dict[tuple, list[CatalogEntry]] = {}
        for entry in entries:
            key = tuple(str(entry.dim(d)) for d in self._groups)
            groups.setdefault(key, []).append(entry)

        kernel_specs = [s for s in self._aggs if s in KERNEL_AGGS]
        skipped_total = 0
        corrupt_total = 0
        rows: list[dict[str, Any]] = []
        for key in sorted(groups):
            members = groups[key]
            row: dict[str, Any] = dict(zip(self._groups, key))
            acc = _KernelAcc(kernel_specs) if kernel_specs else None
            if acc is not None:
                for entry in members:
                    try:
                        summary = _entry_summary(entry, self.catalog.root)
                    except TRACE_READ_ERRORS as exc:
                        log.warning(
                            "lake query: skipping %s/%s (%s), unreadable "
                            "trace file: %s", entry.version, entry.spec_key,
                            entry.workload, exc,
                        )
                        acc.corrupt += 1
                    else:
                        if summary is None:
                            acc.skipped += 1
                        else:
                            acc.add(summary)
                skipped_total += acc.skipped
                corrupt_total += acc.corrupt
            kernel_out = acc.results() if acc is not None else {}
            for spec in self._aggs:
                if spec == "count":
                    row["count"] = len(members)
                elif spec in KERNEL_AGGS:
                    row[spec] = kernel_out.get(spec)
                else:
                    op, field = spec.split(":", 1)
                    row[spec] = _scalar_agg(op, field, members)
            rows.append(row)
        if skipped_total:
            reg.counter("lake.query.skipped_no_trace").inc(skipped_total)
        if corrupt_total:
            reg.counter("lake.query.corrupt").inc(corrupt_total)
        return QueryResult(
            group_dims=self._groups,
            agg_specs=self._aggs,
            rows=rows,
            skipped_no_trace=skipped_total,
            corrupt=corrupt_total,
        )
