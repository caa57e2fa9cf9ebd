"""Trace persistence: save simulation traces to disk and reload them.

Traces are the interface between simulation and analysis; persisting
them lets expensive runs be archived, diffed across code versions, and
analyzed offline (all of :mod:`repro.core` works on loaded traces).

There is one on-disk format, **RLE** (format version 3): a single
``.npz`` holding each trace column run-length encoded, plus a small
JSON-encoded header with core metadata.  The fast-forward engine
produces long piecewise-constant spans, so freq/power/idle columns
collapse to (value, run-length) pairs at a fraction of the dense size.
Decoding is bit-exact: values are stored in their native dtypes and
inflated with :func:`numpy.repeat`, so a dense→RLE→dense round trip
reproduces every byte.  The same bytes travel in memory as the
distributed protocol's trace blob (:func:`trace_rle_to_bytes`).

:func:`load_trace_lazy` returns a :class:`LazyTrace` proxy, deferring
inflation until the first array access; :func:`load_trace` is its
materialized, dense :class:`Trace`.  Paths may be ``str`` or any
:class:`os.PathLike`.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Union
from zipfile import BadZipFile

import numpy as np

from repro.platform.coretypes import CoreType
from repro.sim.trace import Trace

RLE_FORMAT_VERSION = 3  # run-length-encoded columnar format

PathArg = Union[str, "os.PathLike[str]"]

#: What loading a truncated, bit-rotted or hand-edited trace file can
#: raise.  numpy's npz reader surfaces truncation as ``BadZipFile`` or
#: ``EOFError`` rather than ``OSError``, depending on where the file was
#: cut; header and run checks raise ``ValueError``/``KeyError``.
TRACE_READ_ERRORS = (OSError, ValueError, KeyError, EOFError, BadZipFile)

#: The trace columns in canonical order: (name, rows) where ``rows`` is
#: ``None`` for 1-D columns and the source of the row count otherwise.
_COLUMNS = ("busy", "freq", "power", "cpu_power", "wakeups")


# ---------------------------------------------------------------------------
# Run-length encoding
# ---------------------------------------------------------------------------


def rle_encode(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode a 1-D array as (run values, run lengths).

    Values keep the input dtype, so decoding reproduces the exact bytes.
    NaNs compare unequal to themselves and therefore land one per run,
    which is wasteful but still bit-exact.
    """
    n = arr.shape[0]
    if n == 0:
        return arr[:0].copy(), np.zeros(0, dtype=np.int64)
    change = np.flatnonzero(arr[1:] != arr[:-1])
    starts = np.concatenate((np.zeros(1, dtype=np.int64), change + 1))
    lengths = np.diff(np.concatenate((starts, np.array([n], dtype=np.int64))))
    return arr[starts].copy(), lengths


def rle_decode(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inflate (run values, run lengths) back to the dense 1-D array."""
    return np.repeat(values, lengths)


@dataclass
class RLEColumn:
    """One trace column (1-D or row-major 2-D) in run-length form.

    ``values``/``lengths`` concatenate every row's runs; ``row_splits``
    records how many runs each row contributed, so 2-D columns decode
    row by row.
    """

    values: np.ndarray
    lengths: np.ndarray
    row_splits: np.ndarray  # int64, one entry per row

    @classmethod
    def encode(cls, arr: np.ndarray) -> "RLEColumn":
        rows = arr[None, :] if arr.ndim == 1 else arr
        values, lengths, splits = [], [], []
        for row in rows:
            v, l = rle_encode(row)
            values.append(v)
            lengths.append(l)
            splits.append(len(v))
        return cls(
            values=np.concatenate(values) if values else arr[:0].copy(),
            lengths=np.concatenate(lengths) if lengths else np.zeros(0, np.int64),
            row_splits=np.asarray(splits, dtype=np.int64),
        )

    def decode(self) -> np.ndarray:
        """Inflate to the dense (n_rows, n_ticks) array (rows stacked)."""
        rows = []
        start = 0
        for n_runs in self.row_splits:
            stop = start + int(n_runs)
            rows.append(rle_decode(self.values[start:stop], self.lengths[start:stop]))
            start = stop
        return np.stack(rows) if rows else self.values[:0].reshape(0, 0)

    @property
    def nbytes(self) -> int:
        return self.values.nbytes + self.lengths.nbytes + self.row_splits.nbytes


@dataclass
class RLETrace:
    """A complete trace in run-length-encoded columnar form.

    The worker→parent transport unit of the ``"rle"`` trace policy: it
    pickles at run-count size instead of tick-count size, and
    :meth:`to_trace` inflates it back bit-exactly on demand.
    """

    core_types: list[CoreType]
    enabled: list[bool]
    tick_s: float
    n_ticks: int
    columns: dict[str, RLEColumn]

    @classmethod
    def from_trace(cls, trace: Trace) -> "RLETrace":
        return cls(
            core_types=list(trace.core_types),
            enabled=list(trace.enabled),
            tick_s=trace.tick_s,
            n_ticks=len(trace),
            columns={
                "busy": RLEColumn.encode(trace.busy),
                "freq": RLEColumn.encode(np.stack([
                    trace.freq_khz(CoreType.LITTLE),
                    trace.freq_khz(CoreType.BIG),
                ])),
                "power": RLEColumn.encode(trace.power_mw),
                "cpu_power": RLEColumn.encode(np.stack([
                    trace.cpu_power_mw(CoreType.LITTLE),
                    trace.cpu_power_mw(CoreType.BIG),
                ])),
                "wakeups": RLEColumn.encode(trace.wakeups),
            },
        )

    def to_trace(self) -> Trace:
        """Inflate to a dense, finalized :class:`Trace` (bit-exact).

        Every call counts toward ``trace.materializations`` — the lake
        query kernels assert this counter stays flat, proving cross-run
        analytics never pay tick-count memory.
        """
        from repro.obs.metrics import global_metrics

        global_metrics().counter("trace.materializations").inc()
        n = self.n_ticks
        trace = Trace(self.core_types, list(self.enabled), max_ticks=max(1, n))
        if n:
            trace._busy[:, :n] = self.columns["busy"].decode()
            trace._freq[:, :n] = self.columns["freq"].decode()
            trace._power[:n] = self.columns["power"].decode()[0]
            trace._cpu_power[:, :n] = self.columns["cpu_power"].decode()
            trace._wakeups[:n] = self.columns["wakeups"].decode()[0]
        trace._len = n
        trace.finalize()
        return trace

    @property
    def nbytes(self) -> int:
        """Encoded payload size (bytes) — what transport/storage costs."""
        return sum(c.nbytes for c in self.columns.values())

    def validate(self, path: str = "<memory>") -> None:
        """Raise :class:`ValueError` on internally inconsistent runs."""
        expected_rows = {
            "busy": len(self.core_types), "freq": 2, "power": 1,
            "cpu_power": 2, "wakeups": 1,
        }
        for name in _COLUMNS:
            col = self.columns[name]
            if len(col.values) != len(col.lengths) or int(col.row_splits.sum()) != len(col.values):
                raise ValueError(
                    f"corrupt trace file {path}: {name} run values and "
                    f"lengths disagree"
                )
            if len(col.row_splits) != expected_rows[name]:
                raise ValueError(
                    f"corrupt trace file {path}: {name} has "
                    f"{len(col.row_splits)} rows but {expected_rows[name]} "
                    f"were expected"
                )
            if np.any(col.lengths <= 0):
                raise ValueError(
                    f"corrupt trace file {path}: {name} contains "
                    f"non-positive run lengths"
                )
        bad = {}
        for name in _COLUMNS:
            col = self.columns[name]
            start = 0
            for r, n_runs in enumerate(col.row_splits):
                stop = start + int(n_runs)
                ticks = int(col.lengths[start:stop].sum())
                if ticks != self.n_ticks:
                    bad[f"{name}[{r}]"] = ticks
                start = stop
        if bad:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(bad.items()))
            raise ValueError(
                f"corrupt trace file {path}: header records {self.n_ticks} "
                f"ticks but {detail} (tick counts must match across all "
                f"columns)"
            )


class LazyTrace:
    """A :class:`Trace` stand-in that inflates its RLE payload on demand.

    Cheap metadata (core types, length, duration, payload size) is
    served straight from the :class:`RLETrace`; the first access to any
    dense attribute (``busy``, ``power_mw``, ``trimmed`` …) inflates the
    payload once and delegates everything afterwards.  Pickling always
    ships the compact RLE form, never the inflated arrays — that is the
    worker→parent transport trick of the ``"rle"`` trace policy.
    """

    __slots__ = ("_rle", "_dense")

    def __init__(self, rle: RLETrace):
        self._rle = rle
        self._dense: Trace | None = None

    @classmethod
    def from_trace(cls, trace: Trace) -> "LazyTrace":
        return cls(RLETrace.from_trace(trace))

    # -- cheap metadata (no inflation) ---------------------------------

    @property
    def rle(self) -> RLETrace:
        return self._rle

    @property
    def core_types(self) -> list[CoreType]:
        return self._rle.core_types

    @property
    def enabled(self) -> list[bool]:
        return self._rle.enabled

    @property
    def n_cores(self) -> int:
        return len(self._rle.core_types)

    @property
    def tick_s(self) -> float:
        return self._rle.tick_s

    def __len__(self) -> int:
        return self._rle.n_ticks

    @property
    def duration_s(self) -> float:
        return self._rle.n_ticks * self._rle.tick_s

    @property
    def payload_nbytes(self) -> int:
        """Bytes this proxy costs to pickle/store (the RLE payload)."""
        return self._rle.nbytes

    @property
    def inflated(self) -> bool:
        return self._dense is not None

    # -- inflation ------------------------------------------------------

    def materialize(self) -> Trace:
        """Inflate (once) and return the dense trace."""
        if self._dense is None:
            self._dense = self._rle.to_trace()
            from repro.obs.metrics import global_metrics

            global_metrics().counter("trace.rle.inflations").inc()
            global_metrics().counter("trace.rle.inflated_bytes").inc(
                self._dense.nbytes
            )
        return self._dense

    def __getattr__(self, name: str):
        # Only reached for attributes not defined above — i.e. anything
        # needing the dense arrays.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.materialize(), name)

    # -- pickling: always the compact form ------------------------------

    def __getstate__(self) -> RLETrace:
        return self._rle

    def __setstate__(self, state: RLETrace) -> None:
        self._rle = state
        self._dense = None


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------


def _write_npz(path: str, arrays: dict[str, np.ndarray]) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Write through a file object: np.savez would otherwise append
    # ``.npz`` to extensionless paths such as the cache's ``trace.rle``.
    with open(path, "wb") as f:
        np.savez_compressed(f, **arrays)


def _rle_arrays(trace: Union[Trace, LazyTrace, RLETrace]) -> dict[str, np.ndarray]:
    """The npz array dict of ``trace``'s RLE form (shared by file/bytes)."""
    if isinstance(trace, LazyTrace):
        rle = trace.rle
    elif isinstance(trace, RLETrace):
        rle = trace
    else:
        rle = RLETrace.from_trace(trace)
    header = {
        "version": RLE_FORMAT_VERSION,
        "core_types": [t.value for t in rle.core_types],
        "enabled": list(rle.enabled),
        "tick_s": rle.tick_s,
        "n_ticks": rle.n_ticks,
    }
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
    }
    for name in _COLUMNS:
        col = rle.columns[name]
        arrays[f"{name}_values"] = col.values
        arrays[f"{name}_lengths"] = col.lengths
        arrays[f"{name}_splits"] = col.row_splits
    return arrays


def save_trace_rle(trace: Union[Trace, LazyTrace, RLETrace], path: PathArg) -> None:
    """Write ``trace`` to ``path`` in the run-length-encoded format.

    Accepts a dense :class:`Trace` (encoded here), a :class:`LazyTrace`
    (its payload is written without inflating), or a raw
    :class:`RLETrace`.
    """
    _write_npz(os.fspath(path), _rle_arrays(trace))


def trace_rle_to_bytes(trace: Union[Trace, LazyTrace, RLETrace]) -> bytes:
    """The RLE npz byte form of ``trace`` — same format as ``trace.rle``
    cache files, but in memory (the distributed protocol's trace blob)."""
    buf = io.BytesIO()
    np.savez_compressed(buf, **_rle_arrays(trace))
    return buf.getvalue()


def load_trace_rle_bytes(data: bytes) -> LazyTrace:
    """Inverse of :func:`trace_rle_to_bytes`; validates like file loads."""
    return LazyTrace(_read_rle(io.BytesIO(data), "<bytes>"))


def _read_rle(source, path: str) -> RLETrace:
    """Read and validate one RLE npz from a path or binary file object.

    Raises :class:`ValueError` on a missing header or array, an
    unsupported format version, or runs that disagree with the header —
    a truncated or hand-edited file fails loudly here instead of
    producing shifted analyses downstream.
    """
    with np.load(source) as data:
        if "header" not in data:
            raise ValueError(f"corrupt trace file {path}: missing arrays header")
        header = json.loads(bytes(data["header"].tobytes()).decode())
        version = header.get("version")
        if version != RLE_FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version!r} in {path} "
                f"(expected {RLE_FORMAT_VERSION})"
            )
        required = [
            f"{name}_{part}"
            for name in _COLUMNS
            for part in ("values", "lengths", "splits")
        ]
        missing = [k for k in required if k not in data]
        if missing:
            raise ValueError(
                f"corrupt trace file {path}: missing arrays {', '.join(missing)}"
            )
        columns = {
            name: RLEColumn(
                values=np.array(data[f"{name}_values"]),
                lengths=np.array(data[f"{name}_lengths"], dtype=np.int64),
                row_splits=np.array(data[f"{name}_splits"], dtype=np.int64),
            )
            for name in _COLUMNS
        }
    rle = RLETrace(
        core_types=[CoreType(v) for v in header["core_types"]],
        enabled=list(header["enabled"]),
        tick_s=header["tick_s"],
        n_ticks=int(header["n_ticks"]),
        columns=columns,
    )
    rle.validate(path)
    return rle


def load_trace_lazy(path: PathArg) -> LazyTrace:
    """Load a trace written by :func:`save_trace_rle` as a :class:`LazyTrace`.

    The proxy costs run-count memory until an analysis touches the dense
    arrays — the cache hit-load fast path for consumers that only read
    scalars or precomputed reductions.  A truncated or hand-edited file
    raises one of :data:`TRACE_READ_ERRORS`.
    """
    path = os.fspath(path)
    return LazyTrace(_read_rle(path, path))


def load_trace(path: PathArg) -> Trace:
    """Load a trace written by :func:`save_trace_rle` as a dense :class:`Trace`."""
    return load_trace_lazy(path).materialize()
