"""The repetition loop: timed passes, output checks, and the host's speed.

On a shared host the speed of a core drifts from second to second
(``README.md`` has the numbers for a 2-vCPU machine): the same pass can
take twice as long when a neighbour is busy.  While a pass (or the set-up)
runs, a :class:`Speedometer` therefore interrupts this process every
``SAMPLE_INTERVAL_S`` of CPU time and times a short, fixed pure-Python
*reference kernel* on the same core.  Every time is reported *at
reference speed*: its wall time times ``REF_NOMINAL_S`` over the mean
kernel time sampled while it ran, that is, the seconds it would have
taken had the kernel run at its nominal speed.  The kernel belongs to
the benchmark, so no change to the program moves it.  Every pass runs in
this process, so every sample is taken on a core that runs the pass.
"""

from __future__ import annotations

import gc
import resource
import signal
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from bench.workloads import Workload

SAMPLE_ITERATIONS = 1000
SAMPLE_INTERVAL_S = 0.02
#: The kernel's time on an unloaded core of the host of record, a 2-vCPU
#: Intel Xeon virtual machine; a fixed scale, not a measurement.
REF_NOMINAL_S = 3.0e-4


def reference_kernel(n: int = SAMPLE_ITERATIONS) -> float:
    """Fixed interpreter work: integer and float arithmetic, dict and list traffic."""
    acc = 0.0
    table: dict[int, float] = {}
    window: list[int] = []
    for i in range(n):
        x = (i * 2654435761) & 0xFFFF
        acc += x * 1e-6 - acc * 1e-3
        table[x & 1023] = acc
        window.append(x)
        if len(window) > 64:
            window.clear()
    return acc + len(table)


class Speedometer:
    """Samples the reference kernel's duration on a CPU-time interval timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def ref_seconds(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Mean kernel time sampled in ``[start, end]``.

        Falls back to every sample, then to one kernel timed now.
        """
        inside = [dt for t0, dt in self.samples if start <= t0 <= end]
        if not inside:
            self._sample(None, None)
            inside = [dt for _t0, dt in self.samples]
        return statistics.mean(inside)


def at_reference_speed(wall_s: float, ref_s: float) -> float:
    return wall_s * REF_NOMINAL_S / ref_s


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Reps:
    """Raw per-repetition timings of one run."""

    wall1_s: list[float] = field(default_factory=list)
    wall2_s: list[float] = field(default_factory=list)
    #: Mean reference-kernel time sampled during each pass 1 and pass 2.
    ref1_s: list[float] = field(default_factory=list)
    ref2_s: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.wall1_s)

    def seconds(self, which: int) -> float:
        """Median over repetitions of pass ``which``'s time at reference speed."""
        walls, refs = (
            (self.wall1_s, self.ref1_s) if which == 1 else (self.wall2_s, self.ref2_s)
        )
        return statistics.median(map(at_reference_speed, walls, refs))


def _check(workload: "Workload", label: str, got: dict, want: dict) -> None:
    for key, value in want.items():
        workload.ops.check(f"{workload.name}.{label}.{key}", got.get(key) == value)


def run_reps(
    workload: "Workload",
    seconds: float,
    expected: Optional[dict[str, str]] = None,
    tracer=None,
) -> tuple[Reps, dict[str, str]]:
    """Repeat pass 1 and pass 2 until ``seconds`` have elapsed (at least once).

    A repeating pass 2 must equal pass 1, and every repetition the first;
    ``expected`` pins the first repetition.  With a ``tracer`` each pass
    runs inside a root span and the host's speed is not sampled.  Returns
    the timings and the first repetition's outputs.
    """
    reps = Reps()
    first: dict[str, str] = {}
    start = time.perf_counter()
    while True:
        gc.collect()
        with Speedometer() if tracer is None else nullcontext() as speed:
            walls, outs = [], []
            for name, run_pass in (("bench.pass1", workload.pass1),
                                   ("bench.pass2", workload.pass2)):
                with tracer.span(name) if tracer else nullcontext():
                    t0 = time.perf_counter()
                    outs.append(run_pass())
                    walls.append((t0, time.perf_counter()))
        (s1, e1), (s2, e2) = walls
        reps.wall1_s.append(e1 - s1)
        reps.wall2_s.append(e2 - s2)
        if speed is not None:
            reps.ref1_s.append(speed.ref_seconds(s1, e1))
            reps.ref2_s.append(speed.ref_seconds(s2, e2))

        out1, out2 = outs
        if workload.repeats:
            _check(workload, "pass2", out2, out1)
        outputs = {**out1, **out2}
        if not first:
            first = outputs
            if expected is not None:
                _check(workload, "expected", outputs, expected)
        else:
            _check(workload, "repeat", outputs, first)
        if time.perf_counter() - start >= seconds:
            return reps, first
