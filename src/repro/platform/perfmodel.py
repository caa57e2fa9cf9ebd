"""Analytical throughput model for the asymmetric cores.

A *work unit* is the amount of computation a little core at the reference
frequency (1.3 GHz) completes in one second for a purely compute-bound
workload.  Every task in the simulator expresses its demand in work units;
this module answers "how many work units per second does core C at
frequency f sustain for work of class W?".

The model splits the cost of one work unit into:

- a **compute component** that scales inversely with clock frequency and
  with the core's IPC ratio (big cores are 3-wide out-of-order, modeled as
  an ``ipc_ratio`` of 1.8 vs. the little core's 1.0), and
- a **memory component** that does *not* scale with core frequency and is
  inflated by L2 capacity misses (see :mod:`repro.platform.cache`).

This reproduces the paper's architectural findings (Section III.A): at
equal frequency a big core always beats a little core, by ~1.8x for
compute-bound work and up to ~4.5x for cache-sensitive work whose working
set fits the big cluster's 2 MB L2 but thrashes the little cluster's
512 KB L2; and frequency scaling shows diminishing returns for
memory-bound work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.platform.cache import DRAM_PENALTY, memory_time_factor
from repro.platform.coretypes import CoreSpec
from repro.units import F_REF_KHZ


@dataclass(frozen=True)
class WorkClass:
    """How a unit of work interacts with the hardware.

    Attributes:
        name: identifier for reporting.
        compute_fraction: fraction (0..1] of the reference-core time per
            work unit spent in frequency-scalable computation.  The
            remainder is the memory component.
        wss_kb: working-set size in KiB, used by the L2 capacity model.
        ilp: how much of the big core's issue-width advantage the code can
            exploit, in [0, 1].  The effective IPC ratio of a core is
            ``1 + (core.ipc_ratio - 1) * ilp``: branchy, dependence-bound
            code (low ilp) barely benefits from the 3-wide out-of-order
            big core, which is why the paper sees a few applications run
            *slower* on a big core at 0.8 GHz than on a little at 1.3 GHz.
        activity_factor: relative switching activity for the power model
            (1.0 = typical; integer-heavy code is lower, NEON-heavy higher).
    """

    name: str
    compute_fraction: float = 1.0
    wss_kb: float = 64.0
    ilp: float = 1.0
    activity_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.compute_fraction <= 1.0:
            raise ValueError(
                f"compute_fraction must be in (0, 1], got {self.compute_fraction}"
            )
        if self.wss_kb < 0:
            raise ValueError(f"wss_kb must be non-negative, got {self.wss_kb}")
        if not 0.0 <= self.ilp <= 1.0:
            raise ValueError(f"ilp must be in [0, 1], got {self.ilp}")
        if self.activity_factor <= 0:
            raise ValueError(
                f"activity_factor must be positive, got {self.activity_factor}"
            )
        # Work classes key the engine's throughput tables, so the hash
        # is computed once (from the fields, as the generated one was).
        object.__setattr__(self, "_hash", hash((
            self.name, self.compute_fraction, self.wss_kb, self.ilp,
            self.activity_factor,
        )))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through __init__: a pickled hash would be stale in a
        # process with another string-hash seed.
        return (WorkClass, (
            self.name, self.compute_fraction, self.wss_kb, self.ilp,
            self.activity_factor,
        ))

    def effective_ipc_ratio(self, core: CoreSpec) -> float:
        """IPC ratio this work achieves on ``core`` (little baseline = 1.0)."""
        return 1.0 + (core.ipc_ratio - 1.0) * self.ilp


#: Default work class: compute-bound, cache-resident.  On this class a
#: little core at the reference frequency sustains exactly 1 unit/second.
COMPUTE_BOUND = WorkClass(name="compute-bound", compute_fraction=1.0, wss_kb=64.0)


def seconds_per_unit(
    core: CoreSpec,
    freq_khz: int,
    work: WorkClass,
    dram_penalty: float = DRAM_PENALTY,
    memory_contention: float = 1.0,
) -> float:
    """Time (seconds) for ``core`` at ``freq_khz`` to finish one work unit.

    ``memory_contention`` (>= 1.0) inflates the memory component only —
    the engine derives it from how many cores competed for DRAM during
    the interval (see ``ChipSpec.memory_contention_alpha``).
    """
    if freq_khz <= 0:
        raise ValueError(f"freq_khz must be positive, got {freq_khz}")
    if memory_contention < 1.0:
        raise ValueError(
            f"memory_contention must be >= 1.0, got {memory_contention}"
        )
    compute_s = (
        work.compute_fraction * (F_REF_KHZ / freq_khz) / work.effective_ipc_ratio(core)
    )
    memory_base_s = 1.0 - work.compute_fraction
    memory_s = (
        memory_base_s
        * memory_time_factor(core.l2_kb, work.wss_kb, dram_penalty)
        * memory_contention
    )
    return compute_s + memory_s


def throughput_units_per_sec(
    core: CoreSpec,
    freq_khz: int,
    work: WorkClass,
    dram_penalty: float = DRAM_PENALTY,
    memory_contention: float = 1.0,
) -> float:
    """Sustained work units per second for ``core`` at ``freq_khz``."""
    return 1.0 / seconds_per_unit(core, freq_khz, work, dram_penalty, memory_contention)


@lru_cache(maxsize=65536)
def cached_throughput(
    core: CoreSpec,
    freq_khz: int,
    work: WorkClass,
    memory_contention: float = 1.0,
) -> float:
    """Memoized :func:`throughput_units_per_sec` for the engine's hot loop.

    The argument tuple is discrete in practice — core specs and work
    classes are frozen dataclasses, frequencies come from the OPP table,
    and the contention multiplier takes one value per busy-core count —
    so the water-filling loop collapses to dictionary lookups.
    """
    return throughput_units_per_sec(
        core, freq_khz, work, memory_contention=memory_contention
    )


def speedup(
    core_a: CoreSpec,
    freq_a_khz: int,
    core_b: CoreSpec,
    freq_b_khz: int,
    work: WorkClass,
) -> float:
    """Throughput of configuration A relative to configuration B."""
    return throughput_units_per_sec(core_a, freq_a_khz, work) / throughput_units_per_sec(
        core_b, freq_b_khz, work
    )
