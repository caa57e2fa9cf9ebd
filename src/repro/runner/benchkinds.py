"""Synthetic run kinds for the result-pipeline benchmarks.

The ``bench/`` lake corpus, ``scripts/check_cache_budget.py``,
``tests/test_lake_summary.py`` and the transport-bytes test in
``tests/test_runner_transport.py`` need runs whose **simulation** is
nearly free (so transport, storage, and analysis costs dominate) while
the **trace** is long and dense in ticks.  A periodic housekeeping
workload is exactly that: the idle fast-forward engine skips almost
every tick, yet a 60 s run still yields tens of thousands of trace rows
whose columns are long piecewise-constant spans — the best case the RLE
codec is built for and the worst case for shipping dense arrays around.

The kind is registered by dotted path
(``"repro.runner.benchkinds:run_idle_heavy"``) so pool workers resolve
it themselves under any start method.
"""

from __future__ import annotations

from dataclasses import replace

from repro.platform.perfmodel import COMPUTE_BOUND
from repro.runner.spec import RunResult, RunSpec, resolve_chip
from repro.sched.params import baseline_config
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Sleep, Task, Work

#: Default simulated length; long enough that the dense trace is a few
#: megabytes while the idle fast-forward keeps the run itself cheap.
IDLE_HEAVY_SECONDS = 60.0


def _housekeeper(period_s: float, units: float):
    def behavior(ctx):
        while True:
            yield Work(units)
            yield Sleep(period_s)

    return behavior


def run_idle_heavy(spec: RunSpec) -> RunResult:
    """Idle-dominated synthetic run: a few low-rate periodic timers.

    The seed varies the timer periods, so a seed grid yields distinct
    traces (and distinct cache keys) without changing the character of
    the workload.
    """
    chip = resolve_chip(spec.chip)
    max_seconds = spec.max_seconds if spec.max_seconds is not None else IDLE_HEAVY_SECONDS
    # A relaxed 200 ms governor sampling interval: the workload is
    # months of idle between millisecond blips, so fine-grained DVFS
    # evaluation would only burn bench time in the simulator — the
    # point of this kind is to measure the *result pipeline*, not DVFS.
    scheduler = spec.scheduler
    if scheduler.name == "baseline":
        base = baseline_config()
        scheduler = replace(
            base, name="bench-idle", governor=replace(base.governor, sampling_ms=200)
        )
    config = SimConfig(
        chip=chip,
        scheduler=scheduler,
        max_seconds=max_seconds,
        seed=spec.seed,
    )
    sim = Simulator(config)
    # Three timers at seed-skewed periods around 6/12/24 s: sparse
    # enough that idle fast-forward spans dominate (the sim stays
    # cheap), dense enough that every run still has real activity for
    # the reductions to analyze.
    skew = 1.0 + 0.05 * (spec.seed % 7)
    for i, (period, units) in enumerate(
        [(6.0 * skew, 0.001), (12.0 * skew, 0.002), (24.0 * skew, 0.004)]
    ):
        sim.spawn(Task(f"housekeeper-{i}", _housekeeper(period, units), COMPUTE_BOUND))
    trace = sim.run()
    return RunResult(
        spec_key=spec.key(),
        workload=spec.workload,
        metric="latency",
        duration_s=float(trace.duration_s),
        avg_power_mw=float(trace.average_power_mw()),
        energy_mj=float(trace.energy_mj()),
        latency_s=0.0,
        trace=trace,
    )
