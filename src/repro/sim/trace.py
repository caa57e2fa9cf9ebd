"""Per-tick simulation traces.

A :class:`Trace` is the raw material every analysis in :mod:`repro.core`
consumes: per-core busy fractions, per-cluster frequencies, and system
power, one row per 1 ms tick.  Arrays are preallocated for the run's
maximum length and truncated on finalize, so recording is O(1) per tick.
"""

from __future__ import annotations

import numpy as np

from repro.platform.coretypes import CoreType
from repro.units import TICK_MS


class Trace:
    """Columnar per-tick record of one simulation run."""

    def __init__(self, core_types: list[CoreType], enabled: list[bool], max_ticks: int):
        if len(core_types) != len(enabled):
            raise ValueError("core_types and enabled must have equal length")
        if max_ticks <= 0:
            raise ValueError(f"max_ticks must be positive, got {max_ticks}")
        self.core_types = list(core_types)
        self.enabled = list(enabled)
        self.n_cores = len(core_types)
        self.tick_s = TICK_MS / 1000.0

        self._busy = np.zeros((self.n_cores, max_ticks), dtype=np.float32)
        self._freq = np.zeros((2, max_ticks), dtype=np.int32)  # [little, big]
        self._power = np.zeros(max_ticks, dtype=np.float32)
        self._cpu_power = np.zeros((2, max_ticks), dtype=np.float32)  # [little, big]
        self._wakeups = np.zeros(max_ticks, dtype=np.int16)
        self._len = 0
        self._finalized = False

    def record(
        self,
        busy_fractions: list[float],
        little_freq_khz: int,
        big_freq_khz: int,
        power_mw: float,
        wakeups: int = 0,
        little_cpu_mw: float = 0.0,
        big_cpu_mw: float = 0.0,
    ) -> None:
        i = self._len
        if i >= self._busy.shape[1]:
            raise RuntimeError(
                f"trace capacity exceeded: needed {i + 1} ticks but only "
                f"{self._busy.shape[1]} were preallocated"
            )
        self._busy[:, i] = busy_fractions
        self._freq[0, i] = little_freq_khz
        self._freq[1, i] = big_freq_khz
        self._power[i] = power_mw
        self._cpu_power[0, i] = little_cpu_mw
        self._cpu_power[1, i] = big_cpu_mw
        self._wakeups[i] = wakeups
        self._len += 1

    def reserve(self, n_ticks: int) -> None:
        """Append ``n_ticks`` rows whose columns :meth:`fill_rows` writes later.

        The deferred power pipeline reserves each row as it is staged, so
        ``len(trace)`` and the capacity check advance tick by tick exactly
        as with :meth:`record`; the columns read as zeros until the
        pipeline's flush fills them.
        """
        j = self._len + n_ticks
        if j > self._busy.shape[1]:
            raise RuntimeError(
                f"trace capacity exceeded: needed {j} ticks but only "
                f"{self._busy.shape[1]} were preallocated"
            )
        self._len = j

    def fill_rows(
        self,
        start: int,
        ticks: np.ndarray,
        busy: np.ndarray,
        little_freq_khz: np.ndarray,
        big_freq_khz: np.ndarray,
        wakeups: np.ndarray,
        power_mw: np.ndarray,
        little_cpu_mw: np.ndarray,
        big_cpu_mw: np.ndarray,
    ) -> None:
        """Write every column of reserved rows from ``start`` on.

        The vectorized twin of :meth:`record`, in runs: entry ``k`` of
        each argument fills ``ticks[k]`` consecutive rows.  ``busy`` has
        shape ``(n_runs, n_cores)``.  Each value is cast once to its
        column's dtype, the cast :meth:`record` performs, before it is
        repeated, so the rows are bit-exact with one scalar record per
        tick and the temporaries stay at the column's width.
        """
        ticks = np.asarray(ticks, dtype=np.intp)
        end = start + int(ticks.sum())
        if start < 0 or end > self._len:
            raise IndexError(
                f"fill_rows rows {start}..{end - 1} beyond recorded "
                f"length {self._len}"
            )

        def spread(values, column: np.ndarray) -> np.ndarray:
            cast = np.asarray(values).astype(column.dtype, copy=False)
            return np.repeat(cast, ticks, axis=0)

        self._busy[:, start:end] = spread(busy, self._busy).T
        self._freq[0, start:end] = spread(little_freq_khz, self._freq)
        self._freq[1, start:end] = spread(big_freq_khz, self._freq)
        self._wakeups[start:end] = spread(wakeups, self._wakeups)
        self._power[start:end] = spread(power_mw, self._power)
        self._cpu_power[0, start:end] = spread(little_cpu_mw, self._cpu_power)
        self._cpu_power[1, start:end] = spread(big_cpu_mw, self._cpu_power)

    def finalize(self) -> None:
        if not self._finalized:
            self._busy = self._busy[:, : self._len]
            self._freq = self._freq[:, : self._len]
            self._power = self._power[: self._len]
            self._cpu_power = self._cpu_power[:, : self._len]
            self._wakeups = self._wakeups[: self._len]
            self._finalized = True

    def trimmed(self, warmup_s: float) -> "Trace":
        """A view of this trace with the first ``warmup_s`` removed.

        Analyses of steady-state behaviour (TLP, residency, efficiency)
        exclude the launch transient, during which the governor and
        scheduler are still converging from their cold-start state —
        the paper likewise characterizes applications in use, not
        app-launch cold starts.

        The returned trace is an **aliasing view**, not a copy: its
        arrays are NumPy slices of this trace's arrays, so later
        mutation of the parent (including the deferred power flush) is
        visible through the view, and the view costs O(1) memory.  Call
        it only on finalized traces if independence matters.
        """
        if warmup_s < 0:
            raise ValueError(f"warmup_s must be non-negative, got {warmup_s}")
        skip = min(self._len, int(round(warmup_s / self.tick_s)))
        view = Trace.__new__(Trace)
        view.core_types = self.core_types
        view.enabled = self.enabled
        view.n_cores = self.n_cores
        view.tick_s = self.tick_s
        view._busy = self._busy[:, skip : self._len]
        view._freq = self._freq[:, skip : self._len]
        view._power = self._power[skip : self._len]
        view._cpu_power = self._cpu_power[:, skip : self._len]
        view._wakeups = self._wakeups[skip : self._len]
        view._len = self._len - skip
        view._finalized = True
        return view

    # -- accessors -----------------------------------------------------

    def __len__(self) -> int:
        return self._len

    @property
    def duration_s(self) -> float:
        return self._len * self.tick_s

    @property
    def nbytes(self) -> int:
        """Dense in-memory footprint of the recorded columns (bytes).

        Counts only the recorded ticks, not preallocated headroom — the
        payload a worker would ship to the parent or a cache would store
        uncompressed.
        """
        n = self._len
        return (
            self._busy[:, :n].nbytes
            + self._freq[:, :n].nbytes
            + self._power[:n].nbytes
            + self._cpu_power[:, :n].nbytes
            + self._wakeups[:n].nbytes
        )

    @property
    def busy(self) -> np.ndarray:
        """Busy fraction per core per tick, shape (n_cores, n_ticks)."""
        return self._busy[:, : self._len]

    @property
    def power_mw(self) -> np.ndarray:
        """System power per tick (mW)."""
        return self._power[: self._len]

    @property
    def wakeups(self) -> np.ndarray:
        """Task wakeups per tick."""
        return self._wakeups[: self._len]

    def cpu_power_mw(self, core_type: CoreType) -> np.ndarray:
        """Per-tick CPU power of one cluster's cores (mW, incl. idle leakage)."""
        row = 0 if core_type is CoreType.LITTLE else 1
        return self._cpu_power[row, : self._len]

    def wakeups_per_second(self) -> float:
        """Average task wakeup rate over the trace."""
        if self._len == 0:
            return 0.0
        return float(self.wakeups.sum()) / self.duration_s

    def freq_khz(self, core_type: CoreType) -> np.ndarray:
        """Cluster frequency per tick (kHz)."""
        row = 0 if core_type is CoreType.LITTLE else 1
        return self._freq[row, : self._len]

    def cores_of_type(self, core_type: CoreType) -> list[int]:
        return [i for i, t in enumerate(self.core_types) if t is core_type]

    def enabled_cores_of_type(self, core_type: CoreType) -> list[int]:
        return [
            i
            for i, t in enumerate(self.core_types)
            if t is core_type and self.enabled[i]
        ]

    # -- summary metrics -------------------------------------------------

    def average_power_mw(self) -> float:
        if self._len == 0:
            return 0.0
        return float(self.power_mw.mean())

    def energy_mj(self) -> float:
        """Total energy in millijoules (mW integrated over ticks)."""
        return float(self.power_mw.sum()) * self.tick_s

    def active_samples(self, window_ms: int = 10) -> np.ndarray:
        """Boolean per-core activity at ``window_ms`` sampling, shape (n_cores, n_windows).

        A core counts as active in a window if it executed at all during
        the window — the paper's Table IV methodology ("how many cores
        have a non-zero utilization during each sampling interval").
        """
        ticks_per_window = max(1, int(round(window_ms / (self.tick_s * 1000.0))))
        n_windows = self._len // ticks_per_window
        if n_windows == 0:
            return np.zeros((self.n_cores, 0), dtype=bool)
        clipped = self.busy[:, : n_windows * ticks_per_window]
        per_window = clipped.reshape(self.n_cores, n_windows, ticks_per_window)
        return per_window.max(axis=2) > 0.0

    def window_utilization(self, window_ms: int = 10) -> np.ndarray:
        """Mean busy fraction per core per window, shape (n_cores, n_windows)."""
        ticks_per_window = max(1, int(round(window_ms / (self.tick_s * 1000.0))))
        n_windows = self._len // ticks_per_window
        if n_windows == 0:
            return np.zeros((self.n_cores, 0), dtype=np.float32)
        clipped = self.busy[:, : n_windows * ticks_per_window]
        per_window = clipped.reshape(self.n_cores, n_windows, ticks_per_window)
        return per_window.mean(axis=2)

    def window_freq_khz(self, core_type: CoreType, window_ms: int = 10) -> np.ndarray:
        """Cluster frequency at each window start (kHz)."""
        ticks_per_window = max(1, int(round(window_ms / (self.tick_s * 1000.0))))
        n_windows = self._len // ticks_per_window
        freq = self.freq_khz(core_type)
        return freq[: n_windows * ticks_per_window : ticks_per_window]
