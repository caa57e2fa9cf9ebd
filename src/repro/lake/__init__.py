"""``repro.lake`` — cross-run analytics over cached RLE traces.

The observability layer *above* the single run: PR 3 gave per-run
events/metrics and the RLE v3 trace format made cached traces ~1000×
smaller, but every analysis still started from one ``RunResult``.  The
lake turns the :class:`~repro.runner.cache.ResultCache` into a queryable
store:

- :mod:`repro.lake.catalog` — an append-only JSONL **catalog** indexing
  every cache entry (spec hash, app, scheduler + governor params, chip,
  seed, ``repro.__version__``, stored reductions/metrics, trace policy,
  and a traced entry's ``trace_summary``), maintained incrementally on
  ``ResultCache.store()`` and rebuildable by scanning the cache tree;
- :mod:`repro.lake.kernels` — **RLE-native query kernels** (aggregate
  residency, migration counts, frequency histograms, per-cluster
  energy) that consume :class:`~repro.sim.traceio.RLEColumn` run-lengths
  directly, never inflating a dense :class:`~repro.sim.trace.Trace`.
  They run once per entry, when ``ResultCache.store()`` writes its
  ``trace_summary``;
- :mod:`repro.lake.query` — a small composable query API
  (``where`` / ``group_by`` / ``agg``) over catalog dimensions; kernel
  aggregates fold the stored summaries, so a query reads the catalog
  and never opens a trace file (an entry written before 1.3.0 without
  a summary contributes its scalars only);
- :mod:`repro.lake.regress` — regression diffing between two code
  versions' entries for the same logical specs.

Quickstart::

    from repro.lake import Catalog, LakeQuery

    catalog = Catalog()              # default cache root
    catalog.rebuild()                # or rely on incremental indexing
    rows = (
        LakeQuery(catalog)
        .where(workload="bbench")
        .group_by("scheduler", "version")
        .agg("count", "mean:avg_power_mw", "migrations", "residency:big")
        .run()
    )
    print(rows.render())
"""

from repro.lake.catalog import (
    CATALOG_FILE,
    CATALOG_SCHEMA_VERSION,
    Catalog,
    CatalogEntry,
)
from repro.lake.kernels import (
    cluster_energy,
    dense_cluster_energy,
    dense_freq_histogram,
    dense_migrations,
    freq_histogram,
    kernel_aggregates,
    merge_segments,
    migrations,
    residency,
    residency_counts,
    trace_summary,
)
from repro.lake.query import LakeQuery, QueryResult
from repro.lake.regress import diff_versions, render_diff

__all__ = [
    "CATALOG_FILE",
    "CATALOG_SCHEMA_VERSION",
    "Catalog",
    "CatalogEntry",
    "LakeQuery",
    "QueryResult",
    "cluster_energy",
    "dense_cluster_energy",
    "dense_freq_histogram",
    "dense_migrations",
    "diff_versions",
    "freq_histogram",
    "kernel_aggregates",
    "merge_segments",
    "migrations",
    "render_diff",
    "residency",
    "residency_counts",
    "trace_summary",
]
