"""Per-entry trace summaries: kernels run once at store, queries fold them.

``ResultCache.store`` writes each traced entry's kernel aggregates into
``result.json`` as ``trace_summary``; the catalog carries them and lake
queries fold them without opening a trace file.  Entries stored without
a summary (older versions) fall back to loading the trace.  These tests
pin the three views together — summarised, summary-less fallback, and
the dense twins — and check that a summarised battery does no trace I/O.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from math import fsum

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.lake import Catalog, CatalogEntry, LakeQuery
from repro.lake.kernels import (
    dense_cluster_energy,
    dense_freq_histogram,
    dense_migrations,
    trace_summary,
)
from repro.lake.query import KERNEL_AGGS
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.platform.coretypes import CoreType
from repro.runner import BatchRunner, ResultCache, RunSpec, execute_spec
from repro.sim.traceio import LazyTrace, load_trace
from tests.legacy_cache import write_dense_entry

IDLE_HEAVY_KIND = "repro.runner.benchkinds:run_idle_heavy"

#: RLE and legacy dense entries of two apps, a traceless entry, and one
#: RLE entry (the only ``browser`` one with a trace) whose summary is
#: removed.
MIXED_SPECS = [
    RunSpec("bbench", seed=0, max_seconds=1.0, trace_policy="rle"),
    RunSpec("bbench", seed=1, max_seconds=1.0, trace_policy="rle"),
    RunSpec("bbench", seed=2, max_seconds=1.0),
    RunSpec("video-player", seed=0, max_seconds=1.0, trace_policy="rle"),
    RunSpec("video-player", seed=1, max_seconds=1.0),
    RunSpec("browser", seed=3, max_seconds=1.0, trace_policy="rle"),
    RunSpec("browser", seed=9, max_seconds=1.0, trace_policy="none"),
]
UNSUMMARISED = MIXED_SPECS[5]
#: Written in the dense ``trace.npz`` layout of version 1.2.1.
LEGACY_DENSE = {MIXED_SPECS[2].key(), MIXED_SPECS[4].key()}


def _strip_summaries(root: str, keys=None) -> None:
    """Remove ``trace_summary`` from entries' ``result.json``, then reindex."""
    catalog = Catalog(root=root)
    for entry in catalog.load():
        if keys is not None and entry.spec_key not in keys:
            continue
        path = os.path.join(root, entry.version, entry.spec_key, "result.json")
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("trace_summary", None)
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    catalog.rebuild()


@pytest.fixture(scope="module")
def mixed_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mixed"))
    BatchRunner(workers=1, cache=ResultCache(root=root)).run(
        [s for s in MIXED_SPECS if s.key() not in LEGACY_DENSE]
    ).raise_on_failure()
    for spec in MIXED_SPECS:
        if spec.key() in LEGACY_DENSE:
            result = execute_spec(spec)
            write_dense_entry(
                root, repro.__version__, spec, result.scalars(),
                result.trace.materialize(),
            )
    _strip_summaries(root, keys={UNSUMMARISED.key()})
    return root


@pytest.fixture(scope="module")
def stripped_root(mixed_root, tmp_path_factory):
    """The same entries with every summary removed (the fallback path)."""
    root = str(tmp_path_factory.mktemp("stripped") / "cache")
    shutil.copytree(mixed_root, root)
    _strip_summaries(root)
    return root


def _dense_trace(root: str, entry: CatalogEntry):
    entry_dir = os.path.join(root, entry.version, entry.spec_key)
    name = {"rle": "trace.rle", "npz": "trace.npz"}.get(entry.trace_format)
    return load_trace(os.path.join(entry_dir, name)) if name else None


def _dense_residency_counts(trace, core_type: CoreType):
    rows = trace.cores_of_type(core_type)
    if not rows or len(trace) == 0:
        return {}, 0
    active = trace.busy[rows].max(axis=0) > 0.0
    values, counts = np.unique(trace.freq_khz(core_type)[active], return_counts=True)
    return {int(f): int(c) for f, c in zip(values, counts)}, int(active.sum())


def _dense_group(root: str, entries: list[CatalogEntry], spec: str):
    """One group's kernel aggregate, recomputed from inflated traces."""
    traces = [t for t in (_dense_trace(root, e) for e in entries) if t is not None]
    duration = 0.0
    for trace in traces:
        duration += len(trace) * trace.tick_s
    if spec.startswith(("residency:", "freq_hist:")):
        core_type = CoreType.LITTLE if spec.endswith("little") else CoreType.BIG
        merged: dict[int, int] = {}
        total = 0
        for trace in traces:
            if spec.startswith("residency:"):
                counts, n = _dense_residency_counts(trace, core_type)
            else:
                counts, n = dense_freq_histogram(trace, core_type), 0
            for khz, ticks in counts.items():
                merged[khz] = merged.get(khz, 0) + ticks
            total += n
        if spec.startswith("freq_hist:"):
            return {str(k): v for k, v in sorted(merged.items())}
        if not total:
            return {}
        return {str(k): 100.0 * v / total for k, v in sorted(merged.items())}
    if spec == "migrations":
        out = {"up": 0, "down": 0, "total": 0}
        for trace in traces:
            for k, v in dense_migrations(trace).items():
                out[k] += v
        out["per_s"] = out["total"] / duration if duration > 0 else 0.0
        return out
    parts = [dense_cluster_energy(t) for t in traces]
    return {k: fsum(p[k] for p in parts) for k in ("little_mj", "big_mj", "system_mj")}


class TestSummaryEquivalence:
    @pytest.mark.parametrize("spec", KERNEL_AGGS)
    @pytest.mark.parametrize("group", [(), ("workload",)])
    def test_summary_equals_fallback_and_dense(
        self, mixed_root, stripped_root, spec, group
    ):
        def run(root):
            return LakeQuery(Catalog(root=root)).group_by(*group).agg(spec).run()

        summarised, fallback = run(mixed_root), run(stripped_root)
        assert summarised.rows == fallback.rows
        assert summarised.skipped_no_trace == fallback.skipped_no_trace == 1

        entries = Catalog(root=mixed_root).load()
        for row in summarised.rows:
            members = [
                e for e in entries
                if all(str(e.dim(d)) == row[d] for d in group)
            ]
            assert row[spec] == _dense_group(mixed_root, members, spec)

    def test_fixture_mixes_summaries(self, mixed_root, stripped_root):
        entries = Catalog(root=mixed_root).load()
        summarised = {e.spec_key: e.trace_summary is not None for e in entries}
        assert {e.trace_format for e in entries} == {"rle", "npz", None}
        traced = {s.key() for s in MIXED_SPECS if s.trace_policy != "none"}
        assert summarised == {
            s.key(): s.key() in traced and s is not UNSUMMARISED
            for s in MIXED_SPECS
        }
        assert all(e.trace_summary is None for e in Catalog(root=stripped_root).load())


class TestNoTraceIO:
    def test_summarised_battery_loads_no_trace(self, mixed_root, monkeypatch):
        import repro.lake.query as query_mod
        import repro.sim.traceio as traceio

        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            query_mod, "load_trace_lazy", counting(query_mod.load_trace_lazy)
        )
        monkeypatch.setattr(traceio, "load_trace", counting(traceio.load_trace))
        reset_global_metrics()
        catalog = Catalog(root=mixed_root)
        for workload in ("bbench", "video-player"):
            for spec in KERNEL_AGGS:
                LakeQuery(catalog).where(workload=workload).agg(spec).run()
        reg = global_metrics()
        assert calls == []
        assert reg.counter("lake.query.trace_loads").value == 0
        assert reg.counter("trace.materializations").value == 0

        # The one summary-less entry is the only trace a full query opens.
        LakeQuery(catalog).group_by("workload").agg("energy").run()
        assert len(calls) == 1
        assert reg.counter("lake.query.trace_loads").value == 1
        assert reg.counter("trace.materializations").value == 0

    def test_storing_lazy_trace_does_not_inflate(self, tmp_path):
        spec = RunSpec("bbench", seed=4, max_seconds=1.0, trace_policy="rle")
        result = execute_spec(spec)
        assert isinstance(result.trace, LazyTrace)
        reset_global_metrics()
        entry = ResultCache(root=str(tmp_path)).store(spec, result)
        assert not result.trace.inflated
        assert global_metrics().counter("trace.materializations").value == 0
        with open(os.path.join(entry, "result.json")) as fh:
            payload = json.load(fh)
        assert payload["trace_summary"] == trace_summary(result.trace.rle)

    def test_traceless_entry_has_no_summary(self, tmp_path):
        spec = RunSpec("bbench", seed=4, max_seconds=1.0, trace_policy="none")
        entry = ResultCache(root=str(tmp_path)).store(spec, execute_spec(spec))
        with open(os.path.join(entry, "result.json")) as fh:
            assert "trace_summary" not in json.load(fh)
        (record,) = Catalog(root=str(tmp_path)).entries()
        assert record.trace_summary is None
        assert "trace_summary" not in record.to_record()


class TestCatalogRecord:
    def test_append_store_record_equals_rebuild(self, tmp_path):
        root = str(tmp_path)
        cache = ResultCache(root=root)
        for spec in (
            RunSpec("bbench", seed=5, max_seconds=1.0, trace_policy="rle"),
            RunSpec("bbench", seed=6, max_seconds=1.0),
        ):
            cache.store(spec, execute_spec(spec))
        catalog = Catalog(root=root)

        def records():
            with open(catalog.path) as fh:
                return sorted(
                    (json.loads(line) for line in fh),
                    key=lambda r: r["spec_key"],
                )

        appended = records()
        catalog.rebuild()
        assert records() == appended
        assert all("trace_summary" in r["entry"] for r in appended)


def _synthetic_summary(little: dict[str, int], big: dict[str, int]) -> dict:
    return {
        "duration_s": 1.0,
        "residency_little": [little, sum(little.values())],
        "residency_big": [big, sum(big.values())],
        "freq_hist_little": little,
        "freq_hist_big": big,
        "migrations": {"up": 1, "down": 1, "total": 2},
        "energy": {"little_mj": 1.0, "big_mj": 2.0, "system_mj": 3.0},
    }


class TestKhzOrder:
    def test_rows_sort_numerically_across_digit_boundary(self, tmp_path):
        catalog = Catalog(root=str(tmp_path))
        for i, (little, big) in enumerate([
            ({"1000000": 2, "800000": 2}, {"1100000": 1, "900000": 3}),
            ({"800000": 4}, {"2000000": 4}),
        ]):
            entry = CatalogEntry(
                version="1.0.0", spec_key=f"k{i}", workload="w", kind="app",
                chip="exynos5422", core_config=None, scheduler="baseline",
                seed=i, trace_policy="rle", trace_format="rle",
                trace_summary=_synthetic_summary(little, big),
            )
            catalog._append({
                "op": "store", "version": entry.version,
                "spec_key": entry.spec_key, "entry": entry.to_record(),
            })
        (row,) = LakeQuery(catalog).agg(*KERNEL_AGGS).run().rows
        assert list(row["residency:little"]) == ["800000", "1000000"]
        assert row["residency:little"] == {"800000": 75.0, "1000000": 25.0}
        assert list(row["residency:big"]) == ["900000", "1100000", "2000000"]
        assert row["freq_hist:little"] == {"800000": 6, "1000000": 2}
        assert list(row["freq_hist:big"]) == ["900000", "1100000", "2000000"]
        assert row["migrations"] == {"up": 2, "down": 2, "total": 4, "per_s": 2.0}


class TestCorruptTrace:
    @pytest.fixture()
    def corrupt_root(self, tmp_path):
        root = str(tmp_path)
        specs = [
            RunSpec(
                "idle-heavy", kind=IDLE_HEAVY_KIND, seed=seed,
                max_seconds=5.0, trace_policy="rle",
            )
            for seed in range(3)
        ]
        BatchRunner(workers=1, cache=ResultCache(root=root)).run(
            specs
        ).raise_on_failure()
        # Summary-less entries: only the fallback path opens trace files.
        _strip_summaries(root)
        bad = os.path.join(ResultCache(root=root).entry_dir(specs[1]), "trace.rle")
        size = os.path.getsize(bad)
        with open(bad, "r+b") as fh:
            fh.truncate(size // 2)
        return root, specs[1].key()

    def test_corrupt_trace_is_skipped_not_fatal(
        self, corrupt_root, caplog, monkeypatch
    ):
        root, bad_key = corrupt_root
        # A CLI test may have turned propagation off on the "repro" logger.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        reset_global_metrics()
        with caplog.at_level("WARNING", logger="repro.lake.query"):
            result = (
                LakeQuery(Catalog(root=root))
                .group_by("workload").agg("count", "energy").run()
            )
        assert result.corrupt == 1
        assert json.loads(result.to_json())["corrupt"] == 1
        assert global_metrics().counter("lake.query.corrupt").value == 1
        assert any(bad_key in r.getMessage() for r in caplog.records)
        (row,) = result.rows
        assert row["count"] == 3
        assert row["energy"]["system_mj"] > 0

    def test_cli_prints_corrupt_count(self, corrupt_root, capsys):
        root, _ = corrupt_root
        rc = main([
            "lake", "query", "--cache-dir", root,
            "--group-by", "workload", "--agg", "energy",
        ])
        assert rc == 0
        assert "1 entries with an unreadable trace file" in capsys.readouterr().out
