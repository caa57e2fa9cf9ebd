"""Per-entry trace summaries: kernels run once at store, queries fold them.

``ResultCache.store`` writes each traced entry's kernel aggregates into
``result.json`` as ``trace_summary``; the catalog carries them and lake
queries fold them without opening a trace file.  An entry without a
summary (traceless, or written before 1.3.0) is skipped by kernel
aggregates and counted.  These tests pin the three views together — the
stored summaries, a fallback that reruns the kernels on each stored
trace file, and the dense twins — and check that queries do no trace
I/O.
"""

from __future__ import annotations

import json
import os
import shutil
from math import fsum

import numpy as np
import pytest

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
from repro.sim import traceio
from repro.sim.traceio import LazyTrace, load_trace, load_trace_lazy

IDLE_HEAVY_KIND = "repro.runner.benchkinds:run_idle_heavy"

#: RLE entries of two apps (explicit and default policy), a traceless
#: entry, and one RLE entry (the only ``browser`` one with a trace)
#: whose summary is removed.
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


def _rewrite_summaries(root: str, summarise, keys=None) -> None:
    """Set each entry's ``trace_summary`` to ``summarise(entry_dir)``
    (dropped when that is ``None``), then reindex."""
    catalog = Catalog(root=root)
    for entry in catalog.load():
        if keys is not None and entry.spec_key not in keys:
            continue
        entry_dir = os.path.join(root, entry.version, entry.spec_key)
        path = os.path.join(entry_dir, "result.json")
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("trace_summary", None)
        summary = summarise(entry_dir)
        if summary is not None:
            payload["trace_summary"] = summary
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    catalog.rebuild()


def _strip_summaries(root: str, keys) -> None:
    _rewrite_summaries(root, lambda entry_dir: None, keys)


@pytest.fixture(scope="module")
def mixed_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("mixed"))
    BatchRunner(workers=1, cache=ResultCache(root=root)).run(
        MIXED_SPECS
    ).raise_on_failure()
    _strip_summaries(root, keys={UNSUMMARISED.key()})
    return root


@pytest.fixture(scope="module")
def fallback_root(mixed_root, tmp_path_factory):
    """The same entries, each summary recomputed from its trace file."""
    root = str(tmp_path_factory.mktemp("fallback") / "cache")
    shutil.copytree(mixed_root, root)
    keys = {
        e.spec_key for e in Catalog(root=root).load()
        if e.trace_summary is not None
    }
    _rewrite_summaries(root, lambda entry_dir: trace_summary(
        load_trace_lazy(os.path.join(entry_dir, "trace.rle")).rle
    ), keys)
    return root


@pytest.fixture()
def trace_reads(monkeypatch):
    """Every trace file read during a test (``np.load`` or an RLE read)."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "load", counting(np.load))
    monkeypatch.setattr(traceio, "_read_rle", counting(traceio._read_rle))
    return calls


def _dense_trace(root: str, entry: CatalogEntry):
    entry_dir = os.path.join(root, entry.version, entry.spec_key)
    return load_trace(os.path.join(entry_dir, "trace.rle"))


def _dense_residency_counts(trace, core_type: CoreType):
    rows = trace.cores_of_type(core_type)
    if not rows or len(trace) == 0:
        return {}, 0
    active = trace.busy[rows].max(axis=0) > 0.0
    values, counts = np.unique(trace.freq_khz(core_type)[active], return_counts=True)
    return {int(f): int(c) for f, c in zip(values, counts)}, int(active.sum())


def _dense_group(root: str, entries: list[CatalogEntry], spec: str):
    """One group's kernel aggregate, recomputed from inflated traces."""
    traces = [_dense_trace(root, e) for e in entries]
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
        self, mixed_root, fallback_root, spec, group
    ):
        def run(root):
            return LakeQuery(Catalog(root=root)).group_by(*group).agg(spec).run()

        summarised, fallback = run(mixed_root), run(fallback_root)
        assert summarised.rows == fallback.rows
        # The traceless entry and the one whose summary was removed.
        assert summarised.skipped_no_trace == fallback.skipped_no_trace == 2

        entries = [
            e for e in Catalog(root=mixed_root).load()
            if e.trace_summary is not None
        ]
        for row in summarised.rows:
            members = [
                e for e in entries
                if all(str(e.dim(d)) == row[d] for d in group)
            ]
            assert row[spec] == _dense_group(mixed_root, members, spec)

    def test_fixture_mixes_summaries(self, mixed_root):
        entries = Catalog(root=mixed_root).load()
        summarised = {e.spec_key: e.trace_summary is not None for e in entries}
        traced = {s.key() for s in MIXED_SPECS if s.trace_policy != "none"}
        assert summarised == {
            s.key(): s.key() in traced and s is not UNSUMMARISED
            for s in MIXED_SPECS
        }
        assert {e.trace_policy for e in entries} == {"rle", "none"}


class TestNoTraceIO:
    def test_summarised_battery_loads_no_trace(self, mixed_root, trace_reads):
        reset_global_metrics()
        catalog = Catalog(root=mixed_root)
        for workload in ("bbench", "video-player", "browser"):
            for spec in KERNEL_AGGS:
                LakeQuery(catalog).where(workload=workload).agg(spec).run()
        LakeQuery(catalog).group_by("workload").agg(*KERNEL_AGGS).run()
        assert trace_reads == []
        assert global_metrics().counter("trace.materializations").value == 0

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
                seed=i, trace_policy="rle",
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


class TestSummaryLessEntry:
    """An entry without a summary is counted, not lost, and never read."""

    @pytest.fixture()
    def stripped_root(self, tmp_path):
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
        _strip_summaries(root, keys={specs[1].key()})
        return root, specs[1]

    def test_entry_without_summary_is_counted(self, stripped_root, trace_reads):
        root, stripped = stripped_root
        # Its trace file is still there to read; the lake must not.
        assert os.path.isfile(
            os.path.join(ResultCache(root=root).entry_dir(stripped), "trace.rle")
        )
        reset_global_metrics()
        result = (
            LakeQuery(Catalog(root=root))
            .group_by("workload").agg("count", "energy").run()
        )
        assert result.skipped_no_trace == 1
        assert json.loads(result.to_json())["skipped_no_trace"] == 1
        assert global_metrics().counter("lake.query.skipped_no_trace").value == 1
        (row,) = result.rows
        assert row["count"] == 3
        kept = [
            e.trace_summary["energy"] for e in Catalog(root=root).load()
            if e.spec_key != stripped.key()
        ]
        assert len(kept) == 2
        assert row["energy"] == {k: fsum(e[k] for e in kept) for k in kept[0]}
        assert trace_reads == []

    def test_summary_that_is_not_a_mapping_is_skipped(self, tmp_path, trace_reads):
        root = str(tmp_path)
        spec = RunSpec(
            "idle-heavy", kind=IDLE_HEAVY_KIND, seed=0,
            max_seconds=5.0, trace_policy="rle",
        )
        ResultCache(root=root).store(spec, execute_spec(spec))
        _rewrite_summaries(root, lambda entry_dir: ["not", "a", "mapping"])
        result = LakeQuery(Catalog(root=root)).agg("count", "energy").run()
        assert result.skipped_no_trace == 1
        assert result.rows == [{"count": 1, "energy": {
            "little_mj": 0.0, "big_mj": 0.0, "system_mj": 0.0,
        }}]
        assert trace_reads == []

    def test_cli_prints_skipped_count(self, stripped_root, capsys):
        root, _ = stripped_root
        rc = main([
            "lake", "query", "--cache-dir", root,
            "--group-by", "workload", "--agg", "energy",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 entries without a trace summary skipped" in out
