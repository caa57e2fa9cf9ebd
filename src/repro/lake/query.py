"""Composable queries over the lake catalog: where / group_by / agg.

A :class:`LakeQuery` filters catalog entries, groups them on catalog
dimensions, and folds each group through scalar aggregates (over the
metrics stored in the catalog) and/or **kernel aggregates** (over each
entry's stored :mod:`repro.lake.kernels` summary); neither opens a
trace file.  Example, the Table V shape from cache alone::

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
a query costs O(catalog lines).  An entry with no summary is skipped by
kernel aggregates and counted in ``QueryResult.skipped_no_trace`` and
``lake.query.skipped_no_trace``: a traceless entry
(``trace_policy="none"``), or one written before 1.3.0 without a
summary, which contributes its scalars only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import fsum
from typing import Any, Optional

from repro.lake.catalog import Catalog, CatalogEntry
from repro.obs.metrics import global_metrics

__all__ = ["LakeQuery", "QueryResult", "SCALAR_AGGS", "KERNEL_AGGS"]

SCALAR_AGGS = ("count", "mean", "sum", "min", "max")
KERNEL_AGGS = (
    "residency:little", "residency:big",
    "freq_hist:little", "freq_hist:big",
    "migrations", "energy",
)


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
    #: Entries without a ``trace_summary``, skipped by kernel aggregates.
    skipped_no_trace: int = 0

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "group_by": list(self.group_dims),
            "agg": list(self.agg_specs),
            "rows": self.rows,
            "skipped_no_trace": self.skipped_no_trace,
        }

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
                f"\n({self.skipped_no_trace} entries without a trace summary "
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
        rows: list[dict[str, Any]] = []
        for key in sorted(groups):
            members = groups[key]
            row: dict[str, Any] = dict(zip(self._groups, key))
            acc = _KernelAcc(kernel_specs) if kernel_specs else None
            if acc is not None:
                for entry in members:
                    if entry.trace_summary is None:
                        acc.skipped += 1
                    else:
                        acc.add(entry.trace_summary)
                skipped_total += acc.skipped
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
        return QueryResult(
            group_dims=self._groups,
            agg_specs=self._aggs,
            rows=rows,
            skipped_no_trace=skipped_total,
        )
