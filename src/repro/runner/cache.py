"""Content-addressed on-disk result cache.

Layout: ``<root>/<repro.__version__>/<spec_key>/`` holding

- ``result.json`` — the spec manifest plus the scalar metrics and any
  in-worker reduction payloads (serialized through
  :func:`repro.experiments.serialize.to_jsonable`), and for a traced
  result its ``trace_summary``: the lake kernel aggregates
  (:func:`repro.lake.kernels.trace_summary`), computed once here so
  lake queries never reopen the trace file,
- ``trace.rle`` — the run-length-encoded columnar trace
  (:mod:`repro.sim.traceio`), written when the result carries a
  :class:`~repro.sim.traceio.LazyTrace` (the default ``"rle"`` trace
  policy); loaded back lazily, so a cache hit costs only the
  compressed read until someone touches the dense arrays.  Entries
  with no trace file simply had none (``trace_policy="none"``).

Versions up to 1.2.1 also wrote dense ``trace.npz`` files.  Nothing
reads them any more: they sit under their own version directory, which
this cache never serves, and the lake indexes those entries by their
scalars alone.  :meth:`ResultCache.prune_versions` (``biglittle cache
--prune``) deletes them.

Every ``store``/``evict`` also appends a record to the lake catalog
(``<root>/catalog.jsonl``, see :mod:`repro.lake.catalog`), keeping the
cross-run index current without a scan; a root with no catalog gets one
built from its entries instead.  The append is best-effort and a stale
catalog is always rebuildable from the entries themselves.

Keying by spec hash *and* package version means a version bump
invalidates every entry wholesale — simulation semantics may have
changed — without touching older versions' entries.  Writes go through
a temp directory + atomic rename, so a killed run never leaves a
half-written entry that a later run would trust.

Every instance keeps a :class:`CacheStats` tally (hits, misses, bytes
in either direction) and mirrors it into the process-global metrics
registry (``cache.hits`` / ``cache.misses`` / ``cache.bytes_loaded`` /
``cache.bytes_written`` counters and the ``cache.entry_bytes``
histogram of on-disk entry sizes).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Optional

import repro
from repro.obs.logsetup import get_logger
from repro.obs.metrics import TRANSPORT_BUCKETS_BYTES, global_metrics
from repro.runner.spec import RunResult, RunSpec
from repro.sim.traceio import (
    TRACE_READ_ERRORS,
    LazyTrace,
    load_trace_lazy,
    save_trace_rle,
)

#: Environment override for the cache root (tests, CI, shared scratch).
CACHE_DIR_ENV = "REPRO_RUNNER_CACHE"

log = get_logger("runner.cache")


def default_cache_dir() -> str:
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(
        os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
        "repro-runner",
    )


def dir_nbytes(path: str) -> int:
    """Total size of the regular files directly inside ``path``."""
    total = 0
    try:
        with os.scandir(path) as it:
            for entry in it:
                if entry.is_file():
                    total += entry.stat().st_size
    except OSError:
        pass
    return total


def _publish(tmp: str, entry: str, attempts: int = 3) -> bool:
    """Rename the finished ``tmp`` dir onto ``entry``.

    Returns False when a concurrent writer's entry occupies the path
    (directory-over-directory rename fails with ENOTEMPTY).  When the
    rename fails but no entry is left — a third writer's ``rmtree``
    removed the winner's entry before this check — the path is free
    again and the rename is retried.
    """
    for attempt in range(attempts):
        try:
            os.replace(tmp, entry)
            return True
        except OSError:
            if os.path.isdir(entry):
                return False
            if attempt == attempts - 1:
                raise
    return False


def _trace_summary(trace: Optional[LazyTrace]) -> Optional[dict[str, Any]]:
    """The lake kernel aggregates of a stored trace (``None`` if traceless).

    Taken from the RLE payload, so storing never inflates the trace.
    """
    if trace is None:
        return None
    from repro.lake.kernels import trace_summary

    return trace_summary(trace.rle)


@dataclass
class CacheStats:
    """One cache instance's traffic counters."""

    hits: int = 0
    misses: int = 0
    entries_written: int = 0
    bytes_loaded: int = 0
    bytes_written: int = 0
    store_races: int = 0

    def summary(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (
            f"{self.hits}/{total} hits ({rate:.0f}%), "
            f"{self.entries_written} entries written, "
            f"{self.bytes_written / 1e6:.2f} MB written, "
            f"{self.bytes_loaded / 1e6:.2f} MB loaded"
        )


class ResultCache:
    """Spec-keyed persistent store of :class:`RunResult` objects."""

    RESULT_FILE = "result.json"
    RLE_TRACE_FILE = "trace.rle"

    def __init__(self, root: Optional[str] = None, version: Optional[str] = None):
        self.root = root or default_cache_dir()
        self.version = version if version is not None else repro.__version__
        self.stats = CacheStats()

    def entry_dir(self, spec: RunSpec) -> str:
        return os.path.join(self.root, self.version, spec.key())

    def contains(self, spec: RunSpec) -> bool:
        return os.path.isfile(os.path.join(self.entry_dir(spec), self.RESULT_FILE))

    def _miss(self) -> None:
        self.stats.misses += 1
        global_metrics().counter("cache.misses").inc()

    def _corrupt(self, spec: RunSpec, reason: str) -> None:
        """Evict a corrupt entry so the bad bytes never get re-read.

        A torn write or bit-rotted file used to report a *silent* miss,
        leaving the entry in place to fail identically on every future
        lookup.  Now it is logged, counted (``cache.corrupt``), and
        evicted — the subsequent re-run overwrites it with a good entry.
        """
        entry = self.entry_dir(spec)
        log.warning("evicting corrupt cache entry %s: %s", entry, reason)
        global_metrics().counter("cache.corrupt").inc()
        self.evict(spec)
        self._miss()

    def load(self, spec: RunSpec) -> Optional[RunResult]:
        """Return the cached result for ``spec``, or ``None`` on any miss.

        A missing entry is a plain miss; an entry that *exists* but
        cannot be read back (torn ``result.json``, truncated trace file,
        scalar-schema mismatch) is corrupt — it is evicted with a
        warning and a ``cache.corrupt`` count, then reported as a miss
        so the batch re-runs the simulation.  A stored trace comes back
        as a :class:`~repro.sim.traceio.LazyTrace`; dense inflation is
        deferred until first array access.
        """
        entry = self.entry_dir(spec)
        path = os.path.join(entry, self.RESULT_FILE)
        try:
            with open(path) as f:
                payload = json.load(f)
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, ValueError) as exc:
            self._corrupt(spec, f"unreadable {self.RESULT_FILE} ({exc})")
            return None
        scalars = payload.get("result") if isinstance(payload, dict) else None
        if not isinstance(scalars, dict):
            self._corrupt(spec, f"{self.RESULT_FILE} has no result mapping")
            return None
        trace = None
        rle_path = os.path.join(entry, self.RLE_TRACE_FILE)
        try:
            if os.path.isfile(rle_path):
                trace = load_trace_lazy(rle_path)
        except TRACE_READ_ERRORS as exc:
            self._corrupt(spec, f"unreadable trace file ({exc})")
            return None
        try:
            result = RunResult(trace=trace, **scalars)
        except TypeError as exc:
            self._corrupt(spec, f"result scalars do not fit RunResult ({exc})")
            return None
        loaded = dir_nbytes(entry)
        self.stats.hits += 1
        self.stats.bytes_loaded += loaded
        reg = global_metrics()
        reg.counter("cache.hits").inc()
        reg.counter("cache.bytes_loaded").inc(loaded)
        return result

    def store(self, spec: RunSpec, result: RunResult) -> str:
        """Persist ``result`` under ``spec``'s key; returns the entry dir.

        The :class:`~repro.sim.traceio.LazyTrace` is written in its RLE
        form directly — storing a result never inflates it.  A traced
        result also gets its ``trace_summary`` in ``result.json``, which
        the lake catalog indexes.
        """
        entry = self.entry_dir(spec)
        parent = os.path.dirname(entry)
        os.makedirs(parent, exist_ok=True)
        tmp = tempfile.mkdtemp(prefix=".tmp-", dir=parent)
        try:
            payload = {
                "cache_version": self.version,
                "spec": spec.manifest(),
                "result": result.scalars(),
            }
            summary = _trace_summary(result.trace)
            if summary is not None:
                payload["trace_summary"] = summary
            with open(os.path.join(tmp, self.RESULT_FILE), "w") as f:
                json.dump(payload, f, indent=2, sort_keys=True)
            if result.trace is not None:
                save_trace_rle(result.trace, os.path.join(tmp, self.RLE_TRACE_FILE))
            written = dir_nbytes(tmp)
            if os.path.isdir(entry):
                shutil.rmtree(entry, ignore_errors=True)
            if not _publish(tmp, entry):
                # Concurrent writer: another process published this entry
                # between our rmtree and replace.  Both writers hold
                # results for the same spec key, so losing the race is
                # benign — keep theirs, discard ours.
                shutil.rmtree(tmp, ignore_errors=True)
                self.stats.store_races += 1
                global_metrics().counter("cache.store_races").inc()
                return entry
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self.stats.entries_written += 1
        self.stats.bytes_written += written
        reg = global_metrics()
        reg.counter("cache.bytes_written").inc(written)
        reg.histogram("cache.entry_bytes", TRANSPORT_BUCKETS_BYTES).observe(written)
        self._catalog().append_store(self.version, spec.key(), payload, written)
        return entry

    def _catalog(self):
        """The lake catalog for this cache root (lazy import, no cycle)."""
        from repro.lake.catalog import Catalog

        return Catalog(root=self.root)

    def evict(self, spec: RunSpec) -> None:
        entry = self.entry_dir(spec)
        if os.path.isdir(entry):
            shutil.rmtree(entry)
            self._catalog().append_evict(self.version, spec.key())

    # -- garbage collection -------------------------------------------------

    def disk_stats(self) -> dict[str, dict[str, int]]:
        """Per-version on-disk footprint: ``{version: {entries, bytes}}``.

        Scans the cache root without touching entry contents; versions
        are the first-level directories (one per ``repro.__version__``
        that ever wrote here).  Temp directories from in-flight writes
        (``.tmp-*``) are ignored.
        """
        stats: dict[str, dict[str, int]] = {}
        try:
            versions = sorted(os.listdir(self.root))
        except OSError:
            return stats
        for version in versions:
            vdir = os.path.join(self.root, version)
            if version.startswith(".") or not os.path.isdir(vdir):
                continue
            entries = 0
            nbytes = 0
            try:
                with os.scandir(vdir) as it:
                    for entry in it:
                        if not entry.is_dir() or entry.name.startswith(".tmp-"):
                            continue
                        entries += 1
                        nbytes += dir_nbytes(entry.path)
            except OSError:
                continue
            stats[version] = {"entries": entries, "bytes": nbytes}
        return stats

    def prune_versions(self, keep: Optional[set[str]] = None) -> tuple[int, int]:
        """Drop every version directory not in ``keep`` (default: current).

        The user-facing GC behind ``biglittle cache --prune``: a version
        bump invalidates old entries wholesale but nothing deleted them
        until now — thousand-point explore studies would otherwise
        accrete a dead tree per release.  Each removed entry is evicted
        from the lake catalog too, if the cache has one.  Returns
        ``(entries_removed, bytes_removed)``.
        """
        if keep is None:
            keep = {self.version}
        catalog = self._catalog()
        indexed = catalog.exists()
        removed_entries = 0
        removed_bytes = 0
        for version, stat in self.disk_stats().items():
            if version in keep:
                continue
            vdir = os.path.join(self.root, version)
            keys = [k for k in os.listdir(vdir) if not k.startswith(".tmp-")]
            shutil.rmtree(vdir, ignore_errors=True)
            if indexed:
                for spec_key in keys:
                    catalog.append_evict(version, spec_key)
            removed_entries += stat["entries"]
            removed_bytes += stat["bytes"]
        return removed_entries, removed_bytes
