"""Per-task time-weighted load tracking (the core of paper Algorithm 1).

The HMP scheduler tracks a weighted average of each task's CPU load at
1 ms granularity; older 1 ms contributions are weighted geometrically so
that a contribution from ``half-life`` milliseconds ago counts 50%.  In
the paper's platform the half-life is 32 ms.

Two fidelity details from the paper:

- the load is **normalized by the current clock frequency** ("the
  scheduler requires an absolute load value independent from the current
  clock frequency"), in the per-tick :func:`load_sample`;
- **sleeping tasks are not updated** ("If a task enters the sleep state,
  its load is not updated"), so bursty tasks keep their high load across
  idle gaps — the one fold, :meth:`LoadTracker.advance`, is simply not
  called for sleeping ticks.
"""

from __future__ import annotations

from repro.units import LOAD_SCALE, TICK_MS


def load_sample(
    busy_s: float, nr_running: int, tick_s: float, freq_khz: int, max_khz: int
) -> float:
    """One tick's frequency-normalized load sample (0..1024) of a task that
    ran ``busy_s`` seconds of the tick on a core that started it with
    ``nr_running`` runnable tasks: the runnable fraction, scaled by the
    core's current over its maximum frequency."""
    runnable_frac = min(1.0, busy_s * nr_running / tick_s)
    return runnable_frac * (freq_khz / max_khz) * LOAD_SCALE


def decay_per_tick(halflife_ms: float) -> float:
    """Geometric decay factor per engine tick for a given half-life."""
    if halflife_ms <= 0:
        raise ValueError(f"halflife_ms must be positive, got {halflife_ms}")
    return 0.5 ** (TICK_MS / halflife_ms)


class LoadTracker:
    """Exponentially weighted load average on the 0..1024 kernel scale."""

    __slots__ = ("_decay", "_value")

    def __init__(self, halflife_ms: float = 32.0, initial: float = 0.0):
        if not 0.0 <= initial <= LOAD_SCALE:
            raise ValueError(f"initial load must be in [0, {LOAD_SCALE}], got {initial}")
        self._decay = decay_per_tick(halflife_ms)
        self._value = initial

    @property
    def value(self) -> float:
        """Current load average in [0, 1024]."""
        return self._value

    def advance(self, sample: float, ticks: int) -> float:
        """Fold in ``ticks`` consecutive identical samples and return the average.

        The EWMA form ``v = d*v + (1-d)*s`` makes a sustained sample of S
        converge to exactly S, and weights a sample from one half-life ago
        by 50% relative to the newest — matching the paper's description.
        A span is replayed one tick at a time, so fast-forwarded spans land
        on the identical IEEE-754 value as tick-by-tick execution.  (The
        closed form ``d**n * v + (1 - d**n) * s`` is *not* bit-exact, which
        is why a tight scalar loop is used instead.)
        """
        if not 0.0 <= sample <= LOAD_SCALE:
            raise ValueError(f"sample must be in [0, {LOAD_SCALE}], got {sample}")
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        d = self._decay
        contrib = (1.0 - d) * sample
        v = self._value
        # A countdown, not ``range``: the reference tick folds one tick at
        # a time, and this loop has the least fixed cost.
        while ticks:
            v = d * v + contrib
            ticks -= 1
        self._value = v
        return v

    def first_crossing(
        self,
        sample: float,
        ticks: int,
        threshold: float,
        rising: bool,
        value: float | None = None,
    ) -> tuple[int, float]:
        """Dry-run :meth:`advance` from ``value`` (default: the average),
        stopping after the first fold above ``threshold`` (``rising``) or
        below it.  Returns ``(j, v)``: that fold's 0-based tick, else
        ``ticks``, and the average after the last fold made.  Commits
        nothing; segments chain by passing ``v`` back as ``value``."""
        d = self._decay
        contrib = (1.0 - d) * sample
        v = self._value if value is None else value
        for j in range(ticks):
            v = d * v + contrib
            if (v > threshold) if rising else (v < threshold):
                return j, v
        return ticks, v

    def decay(self, ticks: int) -> float:
        """Age the average over ``ticks`` of sleep (no new samples).

        While a task sleeps no samples are recorded ("its load is not
        updated"), but elapsed time still ages the history — as in the
        kernel's PELT implementation, which decays the sum for the slept
        period at wakeup.  This is what makes the tracked load converge
        to the task's *duty cycle*: a thread busy 30% of the time
        converges to ~0.3*1024, and only sustained near-continuous
        execution crosses the 700 up-migration threshold.
        """
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        self._value *= self._decay**ticks
        return self._value

    def reset(self, value: float = 0.0) -> None:
        if not 0.0 <= value <= LOAD_SCALE:
            raise ValueError(f"value must be in [0, {LOAD_SCALE}], got {value}")
        self._value = value
