"""Unit conventions and physical constants used throughout the simulator.

The simulator uses a small set of fixed conventions rather than a general
unit system:

- **time**: integer *ticks* of :data:`TICK_MS` milliseconds inside the
  engine; floating-point *seconds* in public APIs.
- **frequency**: kilohertz (``int``), matching Linux cpufreq conventions.
  Helpers convert to GHz for display.
- **power**: milliwatts (``float``), matching the paper's figures.
- **energy**: millijoules (``float``).
- **work**: abstract *work units*.  One work unit is defined as the amount
  of computation a little core at :data:`F_REF_KHZ` completes in one second
  for a purely compute-bound workload (see ``platform.perfmodel``).
- **load**: scheduler load values are scaled to :data:`LOAD_SCALE` = 1024,
  matching the kernel's fixed-point convention for HMP thresholds.
"""

from __future__ import annotations

# Engine tick length.  1 ms matches the load-history granularity that the
# paper's HMP scheduler uses (Section IV.B).
TICK_MS: int = 1
TICKS_PER_SECOND: int = 1000 // TICK_MS

# Reference frequency for the abstract work unit (little-core max).
F_REF_KHZ: int = 1_300_000

# Fixed-point scale for scheduler loads (kernel convention; the paper's
# up/down thresholds 700/256 are expressed on this scale).
LOAD_SCALE: int = 1024

# Sampling intervals from the paper's methodology.
TLP_SAMPLE_MS: int = 10       # Tables III/IV/V sample CPU state every 10 ms
GOVERNOR_SAMPLE_MS: int = 20  # interactive governor default sampling rate

# Display refresh for FPS-oriented applications.
VSYNC_HZ: int = 60

# Launch transient (cold start, while the governor and load averages
# converge) that every steady-state metric trims: the FPS scalars and
# the trace analyses behind Tables III-V and Figures 9/10.
WARMUP_S: float = 1.0


def khz_to_ghz(khz: int) -> float:
    """Convert a kilohertz frequency to gigahertz."""
    return khz / 1e6


def ghz_to_khz(ghz: float) -> int:
    """Convert a gigahertz frequency to integer kilohertz."""
    return int(round(ghz * 1e6))


def ms_to_ticks(ms: float) -> int:
    """Convert milliseconds to a whole number of engine ticks (>= 0)."""
    if ms < 0:
        raise ValueError(f"negative duration: {ms} ms")
    return int(round(ms / TICK_MS))


def seconds_to_ticks(seconds: float) -> int:
    """Convert seconds to a whole number of engine ticks (>= 0)."""
    return ms_to_ticks(seconds * 1000.0)


def ticks_to_seconds(ticks: int) -> float:
    """Convert engine ticks to seconds."""
    return ticks * TICK_MS / 1000.0
