"""The trace-lake catalog: an append-only index of every cache entry.

One JSONL file (``catalog.jsonl``) at the cache root records one line
per catalog operation::

    {"schema": 1, "op": "store", "version": "1.2.0",
     "spec_key": "ab12…", "entry": { …dimensions and metrics… }}
    {"schema": 1, "op": "evict", "version": "1.2.0", "spec_key": "ab12…"}

Design choices, deliberate and load-bearing:

- **Append-only JSONL, not SQLite.**  Appends are atomic at line
  granularity, so concurrent writers never corrupt each other, and the
  log stays inspectable with any text tool.  Reading folds the log:
  last ``store`` wins per ``(version, spec_key)``, a later ``evict``
  removes it.
- **Versioned schema.**  Every line carries ``schema``; readers skip
  lines from a *newer* schema (forward-compatible: an old reader of a
  newer log degrades to a partial view instead of crashing) and count
  them in ``lake.catalog.skipped_lines``.
- **Rebuildable.**  The log is a cache of the cache: ``rebuild()``
  re-derives every record by scanning ``<root>/<version>/<key>/
  result.json``, so a lost or stale catalog is never fatal.  That
  includes each traced entry's ``trace_summary`` (its lake kernel
  aggregates), which ``result.json`` carries — so queries read the
  catalog alone, and a rebuild never opens a trace file.
- **Optional fields stay schema 1.**  ``trace_summary`` is absent from
  traceless entries and from entries written before 1.3.0 without one,
  which contribute their scalars only; readers go through ``.get``.
  An entry holds a trace if and only if it has a summary.

Incremental maintenance happens inside
:meth:`repro.runner.cache.ResultCache.store` / ``evict`` via
:meth:`Catalog.append_store` / :meth:`Catalog.append_evict`; both are
best-effort — an unwritable catalog degrades to rebuild-on-read, never
to a failed run.  A write to a root with no log builds the log from the
tree first (the tree already shows the change), so the log and a scan
hold the same entries after any sequence of stores and evictions.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.obs.logsetup import get_logger
from repro.obs.metrics import global_metrics

log = get_logger("lake.catalog")

#: Schema version stamped on every catalog line.  Bump when a reader
#: could misinterpret older fields; readers skip lines newer than this.
CATALOG_SCHEMA_VERSION = 1

#: The catalog file name, directly under the cache root.
CATALOG_FILE = "catalog.jsonl"

#: The trace policy a spec manifest leaves out: ``RunSpec``'s default.
DEFAULT_TRACE_POLICY = "rle"

#: Scalar metric fields copied from ``result.json`` into the catalog.
METRIC_FIELDS = (
    "metric", "duration_s", "avg_power_mw", "energy_mj",
    "latency_s", "avg_fps", "min_fps",
)


def _flatten_scheduler(scheduler: Any) -> tuple[str, dict[str, Any]]:
    """Split a manifest's scheduler blob into (name, flat params).

    Params are flattened to ``hmp.*`` / ``gov.*`` keys so queries can
    filter and group on individual governor knobs (``gov.hold_ms``)
    without knowing the nested manifest shape.
    """
    if not isinstance(scheduler, dict):
        return str(scheduler), {}
    name = str(scheduler.get("name", "?"))
    params: dict[str, Any] = {}
    for prefix, group in (("hmp", "hmp"), ("gov", "governor")):
        blob = scheduler.get(group)
        if isinstance(blob, dict):
            for key, value in blob.items():
                params[f"{prefix}.{key}"] = value
    return name, params


def _chip_id(chip: Any) -> str:
    """A catalog-friendly chip identity: registry id or ``inline:<name>``."""
    if isinstance(chip, str):
        return chip
    if isinstance(chip, dict) and "inline" in chip:
        inline = chip["inline"]
        name = inline.get("name", "?") if isinstance(inline, dict) else "?"
        return f"inline:{name}"
    return str(chip)


def _summary(blob: dict[str, Any]) -> Optional[dict[str, Any]]:
    summary = blob.get("trace_summary")
    return summary if isinstance(summary, dict) else None


@dataclass(frozen=True)
class CatalogEntry:
    """One cache entry's indexed identity, dimensions, and metrics."""

    version: str
    spec_key: str
    workload: str
    kind: str
    chip: str
    core_config: Optional[str]
    scheduler: str
    seed: int
    trace_policy: str
    reductions: tuple[str, ...] = ()
    observe: bool = False
    max_seconds: Optional[float] = None
    nbytes: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    scheduler_params: dict[str, Any] = field(default_factory=dict)
    #: The stored trace's kernel aggregates
    #: (:func:`repro.lake.kernels.trace_summary`), or ``None`` for a
    #: traceless entry or one written before summaries existed.  The
    #: lake reads no trace file, only this.
    trace_summary: Optional[dict[str, Any]] = None

    def dim(self, name: str) -> Any:
        """Resolve one query dimension (column) of this entry.

        Plain attributes (``workload``, ``scheduler``, ``version``,
        ``seed``, ``chip``, …) resolve directly; ``hmp.*`` / ``gov.*``
        reach into the flattened scheduler params and ``metrics.*`` into
        the stored scalars.
        """
        if name.startswith(("hmp.", "gov.")):
            return self.scheduler_params.get(name)
        if name.startswith("metrics."):
            return self.metrics.get(name[len("metrics."):])
        if not hasattr(self, name):
            raise KeyError(
                f"unknown catalog dimension {name!r}; attributes: workload, "
                f"kind, chip, core_config, scheduler, seed, version, "
                f"trace_policy, observe, or hmp.*/gov.*/metrics.*"
            )
        return getattr(self, name)

    def to_record(self) -> dict[str, Any]:
        record = {
            "workload": self.workload,
            "kind": self.kind,
            "chip": self.chip,
            "core_config": self.core_config,
            "scheduler": self.scheduler,
            "scheduler_params": dict(self.scheduler_params),
            "seed": self.seed,
            "max_seconds": self.max_seconds,
            "observe": self.observe,
            "reductions": list(self.reductions),
            "trace_policy": self.trace_policy,
            "nbytes": self.nbytes,
            "metrics": dict(self.metrics),
        }
        if self.trace_summary is not None:
            record["trace_summary"] = self.trace_summary
        return record

    @classmethod
    def from_record(
        cls, version: str, spec_key: str, entry: dict[str, Any]
    ) -> "CatalogEntry":
        return cls(
            version=version,
            spec_key=spec_key,
            workload=str(entry.get("workload", "?")),
            kind=str(entry.get("kind", "app")),
            chip=str(entry.get("chip", "?")),
            core_config=entry.get("core_config"),
            scheduler=str(entry.get("scheduler", "?")),
            seed=int(entry.get("seed", 0)),
            trace_policy=str(entry.get("trace_policy", DEFAULT_TRACE_POLICY)),
            reductions=tuple(entry.get("reductions") or ()),
            observe=bool(entry.get("observe", False)),
            max_seconds=entry.get("max_seconds"),
            nbytes=int(entry.get("nbytes", 0)),
            metrics=dict(entry.get("metrics") or {}),
            scheduler_params=dict(entry.get("scheduler_params") or {}),
            trace_summary=_summary(entry),
        )

    @classmethod
    def from_result_payload(
        cls,
        version: str,
        spec_key: str,
        payload: dict[str, Any],
        nbytes: int,
    ) -> "CatalogEntry":
        """Derive an entry from a cache ``result.json`` payload.

        The single derivation path shared by incremental indexing (which
        has the live spec/result but serializes through the same
        manifest/scalars) and :meth:`Catalog.rebuild` (which only has
        the file) — so both produce identical records.
        """
        manifest = payload.get("spec") or {}
        scalars = payload.get("result") or {}
        scheduler, params = _flatten_scheduler(manifest.get("scheduler"))
        metrics = {
            k: scalars.get(k) for k in METRIC_FIELDS if scalars.get(k) is not None
        }
        return cls(
            version=version,
            spec_key=spec_key,
            workload=str(manifest.get("workload", "?")),
            kind=str(manifest.get("kind", "app")),
            chip=_chip_id(manifest.get("chip")),
            core_config=manifest.get("core_config"),
            scheduler=scheduler,
            seed=int(manifest.get("seed", 0)),
            trace_policy=str(manifest.get("trace_policy", DEFAULT_TRACE_POLICY)),
            reductions=tuple(manifest.get("reductions") or ()),
            observe=bool(manifest.get("observe", False)),
            max_seconds=manifest.get("max_seconds"),
            nbytes=nbytes,
            metrics=metrics,
            scheduler_params=params,
            trace_summary=_summary(payload),
        )


class Catalog:
    """The queryable index over one cache root's entries."""

    def __init__(self, root: Optional[str] = None, path: Optional[str] = None):
        if root is None:
            from repro.runner.cache import default_cache_dir

            root = default_cache_dir()
        self.root = root
        self.path = path or os.path.join(root, CATALOG_FILE)

    # -- incremental writes ------------------------------------------------

    def _write_line(self, line: str) -> None:
        """Append ``line`` with one ``os.write`` on an ``O_APPEND`` fd.

        POSIX makes the seek+write atomic, so concurrent writers (runners
        in several processes sharing a cache root) never interleave bytes
        mid-line.
        """
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)

    def _append(self, record: dict[str, Any]) -> bool:
        """Append one log line; best-effort (returns False on I/O error)."""
        record = {"schema": CATALOG_SCHEMA_VERSION, **record}
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        try:
            self._write_line(line)
        except OSError as exc:
            global_metrics().counter("lake.catalog.append_errors").inc()
            log.warning("catalog append to %s failed: %s", self.path, exc)
            return False
        global_metrics().counter("lake.catalog.appends").inc()
        return True

    def _log_change(self, record: dict[str, Any]) -> bool:
        """Log a store or evict the cache tree already shows; best-effort.

        A missing log is built from the tree instead: a log begun with
        this one line would hide every entry stored before it.
        """
        try:
            if not self.exists() and self._write_log(self.scan(), exclusive=True):
                return True
        except OSError as exc:
            global_metrics().counter("lake.catalog.append_errors").inc()
            log.warning("catalog build at %s failed: %s", self.path, exc)
            return False
        return self._append(record)

    def append_store(
        self,
        version: str,
        spec_key: str,
        payload: dict[str, Any],
        nbytes: int,
    ) -> bool:
        """Index one just-stored cache entry (called by ``ResultCache.store``)."""
        entry = CatalogEntry.from_result_payload(version, spec_key, payload, nbytes)
        return self._log_change({
            "op": "store",
            "version": version,
            "spec_key": spec_key,
            "entry": entry.to_record(),
        })

    def append_evict(self, version: str, spec_key: str) -> bool:
        """Record an eviction (called by ``ResultCache.evict``)."""
        return self._log_change({
            "op": "evict", "version": version, "spec_key": spec_key,
        })

    # -- reads -------------------------------------------------------------

    def _iter_lines(self) -> Iterator[dict[str, Any]]:
        skipped = 0
        try:
            with open(self.path) as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        skipped += 1
                        continue
                    if not isinstance(record, dict):
                        skipped += 1
                        continue
                    if int(record.get("schema", 0)) > CATALOG_SCHEMA_VERSION:
                        skipped += 1
                        continue
                    yield record
        except OSError:
            return
        finally:
            if skipped:
                global_metrics().counter("lake.catalog.skipped_lines").inc(skipped)
                log.warning(
                    "catalog %s: skipped %d unreadable/newer-schema lines",
                    self.path, skipped,
                )

    def entries(self) -> list[CatalogEntry]:
        """Fold the log into the current entry set (last write wins).

        Returns entries sorted by ``(version, spec_key)``, so downstream
        reports are deterministic whatever order concurrent writers
        appended in.
        """
        folded: dict[tuple[str, str], Optional[CatalogEntry]] = {}
        for record in self._iter_lines():
            key = (str(record.get("version")), str(record.get("spec_key")))
            op = record.get("op")
            if op == "store":
                entry_blob = record.get("entry")
                if isinstance(entry_blob, dict):
                    folded[key] = CatalogEntry.from_record(key[0], key[1], entry_blob)
            elif op == "evict":
                folded[key] = None
        return sorted(
            (e for e in folded.values() if e is not None),
            key=lambda e: (e.version, e.spec_key),
        )

    def exists(self) -> bool:
        return os.path.isfile(self.path)

    # -- rebuild and merge -------------------------------------------------

    def scan(self) -> list[CatalogEntry]:
        """Derive the entry set by scanning the cache tree (no log I/O)."""
        from repro.runner.cache import dir_nbytes

        entries: list[CatalogEntry] = []
        try:
            versions = sorted(os.listdir(self.root))
        except OSError:
            return entries
        for version in versions:
            vdir = os.path.join(self.root, version)
            if version.startswith(".") or not os.path.isdir(vdir):
                continue
            for spec_key in sorted(os.listdir(vdir)):
                entry_dir = os.path.join(vdir, spec_key)
                if spec_key.startswith(".tmp-") or not os.path.isdir(entry_dir):
                    continue
                result_path = os.path.join(entry_dir, "result.json")
                try:
                    with open(result_path) as fh:
                        payload = json.load(fh)
                except (OSError, ValueError):
                    continue
                entries.append(CatalogEntry.from_result_payload(
                    version, spec_key, payload, dir_nbytes(entry_dir)
                ))
        return entries

    def _write_log(self, entries: list[CatalogEntry], exclusive: bool) -> bool:
        """Publish ``entries`` as the whole log, through a temp file.

        ``exclusive`` links the file into place only if no log exists
        (returns False when a concurrent writer created one first);
        otherwise the old log is atomically replaced.  Either way no
        reader or appender ever sees a half-written log.
        """
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".catalog-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
                for entry in entries:
                    fh.write(json.dumps({
                        "schema": CATALOG_SCHEMA_VERSION,
                        "op": "store",
                        "version": entry.version,
                        "spec_key": entry.spec_key,
                        "entry": entry.to_record(),
                    }, sort_keys=True, separators=(",", ":")) + "\n")
            if not exclusive:
                os.replace(tmp, self.path)
                return True
            try:
                os.link(tmp, self.path)
            except FileExistsError:
                return False
            return True
        finally:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def rebuild(self) -> list[CatalogEntry]:
        """Rescan the cache tree and atomically rewrite the log (compaction)."""
        entries = self.scan()
        self._write_log(entries, exclusive=False)
        global_metrics().counter("lake.catalog.rebuilds").inc()
        return entries

    def load(self) -> list[CatalogEntry]:
        """The entry set: folded log if present, else a tree scan."""
        if self.exists():
            return self.entries()
        return self.scan()

    # -- summaries ---------------------------------------------------------

    def breakdown(self) -> dict[str, dict[str, dict[str, int]]]:
        """Per-version, per-workload entry/byte tallies for ``cache --stats``."""
        out: dict[str, dict[str, dict[str, int]]] = {}
        for entry in self.load():
            per_app = out.setdefault(entry.version, {})
            row = per_app.setdefault(entry.workload, {"entries": 0, "bytes": 0})
            row["entries"] += 1
            row["bytes"] += entry.nbytes
        return out
