"""The trace lake: catalog indexing, queries and version diffing.

Covers the full ``repro.lake`` surface on a real (small) cache:
incremental ``store()``-time indexing vs full rebuild, the append-only
fold semantics (evict, last-write-wins, garbage tolerance, merge),
``LakeQuery`` filters/group-bys/aggregates, ``diff_versions`` across two
versions' entries for the same logical specs, and the
``biglittle lake`` / ``biglittle cache --stats`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import repro
from repro.cli import main
from repro.lake import CATALOG_SCHEMA_VERSION, Catalog, CatalogEntry, LakeQuery
from repro.lake.regress import diff_versions, render_diff
from repro.obs.metrics import global_metrics, reset_global_metrics
from repro.runner import BatchRunner, ResultCache, RunSpec, execute_spec

APPS = ("bbench", "video-player")
SEEDS = (0, 1)


def _specs(trace_policy: str = "rle") -> list[RunSpec]:
    return [
        RunSpec(app, seed=seed, max_seconds=1.0, trace_policy=trace_policy)
        for app in APPS
        for seed in SEEDS
    ]


@pytest.fixture(scope="module")
def lake_root(tmp_path_factory):
    """A cache populated with 4 short RLE runs + 1 traceless run."""
    root = str(tmp_path_factory.mktemp("lake"))
    cache = ResultCache(root=root)
    specs = _specs() + [
        RunSpec("browser", seed=9, max_seconds=1.0, trace_policy="none")
    ]
    report = BatchRunner(workers=1, cache=cache).run(specs)
    report.raise_on_failure()
    return root


class TestCatalog:
    def test_store_indexes_incrementally(self, lake_root):
        catalog = Catalog(root=lake_root)
        assert catalog.exists()
        entries = catalog.entries()
        assert len(entries) == 5
        assert {e.workload for e in entries} == {"bbench", "video-player", "browser"}
        assert all(e.version == repro.__version__ for e in entries)

    def test_entry_dimensions(self, lake_root):
        entry = next(
            e for e in Catalog(root=lake_root).entries()
            if e.workload == "bbench" and e.seed == 0
        )
        assert entry.trace_policy == "rle"
        assert entry.trace_summary is not None
        assert entry.scheduler == "baseline"
        assert entry.dim("gov.hold_ms") == 80
        assert entry.dim("metrics.avg_power_mw") == entry.metrics["avg_power_mw"]
        assert entry.nbytes > 0
        with pytest.raises(KeyError):
            entry.dim("not-a-dimension")

    def test_rebuild_matches_incremental(self, lake_root):
        catalog = Catalog(root=lake_root)
        incremental = [e.to_record() for e in catalog.entries()]
        rebuilt = [e.to_record() for e in catalog.rebuild()]
        assert rebuilt == incremental

    def test_traceless_entry_has_no_format(self, lake_root):
        entry = next(
            e for e in Catalog(root=lake_root).entries() if e.workload == "browser"
        )
        assert entry.trace_policy == "none"
        assert entry.trace_summary is None

    def test_evict_appends_and_folds_away(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        spec = _specs()[0]
        cache.store(spec, execute_spec(spec))
        catalog = Catalog(root=str(tmp_path))
        assert len(catalog.entries()) == 1
        cache.evict(spec)
        assert catalog.entries() == []
        # Two lines in the log (store + evict), folded on read.
        with open(catalog.path) as fh:
            assert len(fh.readlines()) == 2

    def test_garbage_and_newer_schema_lines_are_skipped(self, lake_root):
        catalog = Catalog(root=lake_root)
        n = len(catalog.entries())
        with open(catalog.path, "a") as fh:
            fh.write("this is not json\n")
            fh.write(json.dumps({
                "schema": CATALOG_SCHEMA_VERSION + 1, "op": "store",
                "version": "9.9.9", "spec_key": "future", "entry": {},
            }) + "\n")
        reset_global_metrics()
        assert len(catalog.entries()) == n
        assert global_metrics().counter("lake.catalog.skipped_lines").value == 2
        catalog.rebuild()  # compaction drops the garbage
        assert len(catalog.entries()) == n

    def test_manifest_without_policy_reads_runspec_default(self):
        spec = RunSpec("bbench", seed=0, max_seconds=1.0)
        assert "trace_policy" not in spec.manifest()
        entry = CatalogEntry.from_result_payload(
            "1.0.0", spec.key(), {"spec": spec.manifest(), "result": {}}, 0
        )
        assert entry.trace_policy == spec.trace_policy

    def test_prune_evicts_pruned_entries(self, tmp_path):
        root = str(tmp_path)
        spec = RunSpec("browser", seed=9, max_seconds=1.0, trace_policy="none")
        result = execute_spec(spec)
        ResultCache(root=root, version="1.2.9").store(spec, result)
        current = ResultCache(root=root, version="1.3.0")
        current.store(spec, result)
        removed, _ = current.prune_versions()
        assert removed == 1

        def versions(catalog):
            rows = LakeQuery(catalog).group_by("version").agg("count").run().rows
            return {row["version"]: row["count"] for row in rows}

        catalog = Catalog(root=root)
        assert versions(catalog) == {"1.3.0": 1}
        assert list(catalog.breakdown()) == ["1.3.0"]
        catalog.rebuild()
        assert versions(catalog) == {"1.3.0": 1}

    def test_prune_without_catalog_keeps_the_scan(self, tmp_path):
        # Evicting into a missing catalog would create a log holding only
        # evictions, which would hide the kept entries from every reader.
        root = str(tmp_path)
        spec = RunSpec("browser", seed=9, max_seconds=1.0, trace_policy="none")
        result = execute_spec(spec)
        ResultCache(root=root, version="1.2.9").store(spec, result)
        current = ResultCache(root=root, version="1.3.0")
        current.store(spec, result)
        catalog = Catalog(root=root)
        os.remove(catalog.path)
        current.prune_versions()
        assert not catalog.exists()
        assert [e.version for e in catalog.load()] == ["1.3.0"]

    @staticmethod
    def _drop_log_between_stores(root: str) -> tuple[ResultCache, list[RunSpec]]:
        """Store two entries, then delete the log the stores wrote."""
        cache = ResultCache(root=root)
        specs = [
            RunSpec("browser", seed=seed, max_seconds=1.0, trace_policy="none")
            for seed in (1, 2, 3)
        ]
        result = execute_spec(specs[0])
        for spec in specs[:2]:
            cache.store(spec, result)
        os.remove(Catalog(root=root).path)
        return cache, specs

    @staticmethod
    def _keys(entries):
        return {(e.version, e.spec_key) for e in entries}

    def test_store_into_missing_log_indexes_the_tree(self, tmp_path):
        root = str(tmp_path)
        cache, specs = self._drop_log_between_stores(root)
        cache.store(specs[2], execute_spec(specs[2]))
        catalog = Catalog(root=root)
        assert catalog.exists()
        assert len(catalog.load()) == 3
        assert self._keys(catalog.load()) == self._keys(catalog.scan())

    def test_evict_into_missing_log_indexes_the_tree(self, tmp_path):
        root = str(tmp_path)
        cache, specs = self._drop_log_between_stores(root)
        cache.evict(specs[0])
        catalog = Catalog(root=root)
        assert catalog.exists()
        assert self._keys(catalog.load()) == {(cache.version, specs[1].key())}
        assert self._keys(catalog.load()) == self._keys(catalog.scan())

    def test_breakdown(self, lake_root):
        breakdown = Catalog(root=lake_root).breakdown()
        per_app = breakdown[repro.__version__]
        assert per_app["bbench"]["entries"] == 2
        assert per_app["video-player"]["entries"] == 2
        assert per_app["bbench"]["bytes"] > 0

    def test_scan_without_log(self, lake_root, tmp_path):
        catalog = Catalog(root=lake_root, path=str(tmp_path / "absent.jsonl"))
        assert not catalog.exists()
        assert len(catalog.load()) == 5  # falls back to tree scan


class TestLakeQuery:
    def test_where_and_count(self, lake_root):
        result = (
            LakeQuery(Catalog(root=lake_root))
            .where(workload="bbench")
            .agg("count")
            .run()
        )
        assert result.rows == [{"count": 2}]

    def test_where_matches_numbers_as_strings(self, lake_root):
        q = LakeQuery(Catalog(root=lake_root))
        assert q.where(seed="0").agg("count").run().rows[0]["count"] == \
            q.where(seed=0).agg("count").run().rows[0]["count"]

    def test_group_by_scalar_aggs(self, lake_root):
        result = (
            LakeQuery(Catalog(root=lake_root))
            .where(trace_policy="rle")
            .group_by("workload")
            .agg("count", "mean:avg_power_mw", "max:energy_mj")
            .run()
        )
        assert [r["workload"] for r in result.rows] == ["bbench", "video-player"]
        for row in result.rows:
            assert row["count"] == 2
            assert row["mean:avg_power_mw"] > 0
            assert row["max:energy_mj"] > 0

    def test_kernel_aggs_without_materialization(self, lake_root):
        reset_global_metrics()
        result = (
            LakeQuery(Catalog(root=lake_root))
            .group_by("workload")
            .agg("residency:little", "freq_hist:big", "migrations", "energy")
            .run()
        )
        assert global_metrics().counter("trace.materializations").value == 0
        assert result.skipped_no_trace == 1  # the trace_policy="none" run
        bbench = next(r for r in result.rows if r["workload"] == "bbench")
        assert bbench["energy"]["system_mj"] > 0
        assert bbench["migrations"]["total"] >= 0
        assert sum(bbench["residency:little"].values()) == pytest.approx(100.0)

    def test_group_residency_weights_by_active_ticks(self, lake_root):
        # The group percentage must equal recombining the per-entry
        # counts, not averaging per-entry percentages.
        from repro.lake.kernels import residency_counts
        from repro.platform.coretypes import CoreType
        from repro.sim.traceio import load_trace_lazy

        catalog = Catalog(root=lake_root)
        entries = [e for e in catalog.entries() if e.workload == "bbench"]
        counts: dict[int, int] = {}
        total = 0
        for entry in entries:
            trace = load_trace_lazy(os.path.join(
                lake_root, entry.version, entry.spec_key, "trace.rle"
            ))
            c, n = residency_counts(trace.rle, CoreType.LITTLE)
            for khz, ticks in c.items():
                counts[khz] = counts.get(khz, 0) + ticks
            total += n
        expected = {str(k): 100.0 * v / total for k, v in sorted(counts.items())}
        result = (
            LakeQuery(catalog)
            .where(workload="bbench")
            .agg("residency:little")
            .run()
        )
        assert result.rows[0]["residency:little"] == expected

    def test_builder_is_immutable(self, lake_root):
        base = LakeQuery(Catalog(root=lake_root))
        filtered = base.where(workload="bbench")
        assert base.run().rows[0]["count"] == 5
        assert filtered.run().rows[0]["count"] == 2

    def test_unknown_agg_rejected(self, lake_root):
        with pytest.raises(ValueError, match="unknown aggregate"):
            LakeQuery(Catalog(root=lake_root)).agg("median:energy_mj")

    def test_render_and_json(self, lake_root):
        result = (
            LakeQuery(Catalog(root=lake_root))
            .group_by("workload")
            .agg("count")
            .run()
        )
        text = result.render(title="t")
        assert "bbench" in text and "count" in text
        payload = json.loads(result.to_json())
        assert payload["group_by"] == ["workload"]
        assert len(payload["rows"]) == 3


class TestDiffVersions:
    @pytest.fixture()
    def two_version_root(self, tmp_path):
        root = str(tmp_path)
        spec = RunSpec("video-player", seed=3, max_seconds=1.0, trace_policy="rle")
        result = execute_spec(spec)
        ResultCache(root=root, version="1.0.0").store(spec, result)
        # Version B: same logical spec, perturbed power metric.
        changed = dataclasses.replace(
            result, avg_power_mw=result.avg_power_mw * 1.25
        )
        ResultCache(root=root, version="2.0.0").store(spec, changed)
        # And one spec only present in B.
        only_b = RunSpec("bbench", seed=5, max_seconds=1.0, trace_policy="none")
        ResultCache(root=root, version="2.0.0").store(only_b, execute_spec(only_b))
        return root

    def test_diff_finds_changed_metric(self, two_version_root):
        payload = diff_versions(
            Catalog(root=two_version_root), "1.0.0", "2.0.0"
        )
        assert payload["common_specs"] == 1
        assert len(payload["changed"]) == 1
        delta = payload["changed"][0]["metrics"]["avg_power_mw"]
        assert delta["rel"] == pytest.approx(0.2)  # 1.25x = +20% of max side
        assert payload["only_in_b"] == [
            {"spec_key": payload["only_in_b"][0]["spec_key"], "workload": "bbench"}
        ]
        assert payload["only_in_a"] == []
        text = render_diff(payload)
        assert "avg_power_mw" in text and "1.0.0 -> 2.0.0" in text

    def test_diff_reports_residency_shift(self, tmp_path):
        # The diff reads big-cluster residency from the entries' summaries.
        root = str(tmp_path)
        spec = RunSpec("bbench", seed=3, max_seconds=1.0)
        result = execute_spec(spec)
        ResultCache(root=root, version="1.0.0").store(spec, result)
        # Version B: same spec and scalars, a trace with other residency.
        other = execute_spec(RunSpec("video-player", seed=3, max_seconds=1.0))
        ResultCache(root=root, version="2.0.0").store(
            spec, dataclasses.replace(result, trace=other.trace)
        )
        catalog = Catalog(root=root)
        assert all(e.trace_summary is not None for e in catalog.entries())
        payload = diff_versions(catalog, "1.0.0", "2.0.0")
        (record,) = payload["changed"]
        assert record["metrics"] == {}
        assert record["big_residency_delta"]["total_abs_pp"] > 0.0
        assert "big residency shift" in render_diff(payload)

    def test_identical_versions_diff_clean(self, two_version_root):
        spec = RunSpec("video-player", seed=3, max_seconds=1.0, trace_policy="rle")
        result = ResultCache(root=two_version_root, version="1.0.0").load(spec)
        ResultCache(root=two_version_root, version="3.0.0").store(spec, result)
        payload = diff_versions(
            Catalog(root=two_version_root), "1.0.0", "3.0.0"
        )
        assert payload["common_specs"] == 1
        assert payload["changed"] == []
        assert payload["unchanged"] == 1


class TestLakeCLI:
    def test_lake_index_and_query(self, lake_root, capsys):
        assert main(["lake", "index", "--cache-dir", lake_root]) == 0
        assert "5 entries" in capsys.readouterr().out
        rc = main([
            "lake", "query", "--cache-dir", lake_root,
            "--where", "workload=bbench", "--group-by", "seed",
            "--agg", "count,migrations",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "migrations" in out and "up:" in out

    def test_lake_query_json_artifact(self, lake_root, capsys, tmp_path):
        out_path = str(tmp_path / "q.json")
        rc = main([
            "lake", "query", "--cache-dir", lake_root,
            "--group-by", "workload", "--agg", "count", "--json", out_path,
        ])
        assert rc == 0
        capsys.readouterr()
        payload = json.load(open(out_path))
        assert {r["workload"] for r in payload["rows"]} == {
            "bbench", "video-player", "browser",
        }

    def test_cache_stats_breakdown(self, lake_root, capsys):
        rc = main(["cache", "--stats", "--cache-dir", lake_root])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-app breakdown" in out
        assert "bbench" in out and "video-player" in out
        assert "this process:" not in out  # the command moves no cache traffic

    def test_lake_diff_cli_exit_code(self, lake_root, capsys):
        # No common specs between a made-up version pair -> exit 1.
        rc = main(["lake", "diff", "0.0.1", "0.0.2", "--cache-dir", lake_root])
        assert rc == 1
