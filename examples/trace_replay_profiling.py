"""Replay a recorded CPU-load trace and profile it per-thread.

This example shows the offline-analysis workflow:

1. a recorded per-thread utilization trace (the kind exported from
   systrace/perfetto) is replayed through the simulated platform;
2. a per-task profiler records where each thread actually ran;
3. the run's trace is saved to disk and re-analyzed from the file,
   proving the persistence round trip.

The synthetic "recording" models a photo-shoot burst: a viewfinder
thread with steady load, an autofocus thread with periodic spikes, and
a burst-capture thread that saturates for two seconds.

Run:  python examples/trace_replay_profiling.py
"""

import tempfile

from repro.core.report import render_table
from repro.core.taskstats import TaskStatsCollector
from repro.core.tlp import tlp_stats
from repro.platform.chip import exynos5422
from repro.sim.engine import SimConfig, Simulator
from repro.sim.traceio import load_trace, save_trace_rle
from repro.workloads.replay import LoadTraceApp

RECORDED_THREADS = {
    # (duration_s, utilization relative to little@1.3GHz)
    "viewfinder": [(8.0, 0.35)],
    "autofocus": [(1.0, 0.10), (0.5, 0.85), (1.5, 0.10), (0.5, 0.85), (4.5, 0.10)],
    "burst-capture": [(3.0, 0.0), (2.0, 1.0), (3.0, 0.0)],
    "jpeg-encode": [(3.5, 0.0), (3.0, 0.7), (1.5, 0.05)],
}


def main() -> None:
    app = LoadTraceApp("camera-recording", RECORDED_THREADS)
    print(f"replaying {len(RECORDED_THREADS)} threads, "
          f"{app.total_duration_s():.1f}s, {app.total_work_units():.2f} work units\n")

    sim = Simulator(SimConfig(chip=exynos5422(screen_on=True),
                              max_seconds=20.0, seed=11))
    profiler = TaskStatsCollector.attach(sim)
    app.install(sim)
    trace = sim.run()

    print(profiler.render())
    print()

    hot = profiler.big_core_consumers(threshold=0.3)
    names = ", ".join(s.name.split("/")[-1] for s in hot) or "none"
    print(f"threads earning >30% of their CPU time on big cores: {names}\n")

    with tempfile.NamedTemporaryFile(suffix=".rle", delete=False) as f:
        path = f.name
    save_trace_rle(trace, path)
    reloaded = load_trace(path)
    stats = tlp_stats(reloaded.trimmed(0.5))
    print(render_table(
        ["idle %", "little %", "big %", "TLP", "avg power mW"],
        [[stats.idle_pct, stats.little_only_pct, stats.big_active_pct,
          stats.tlp, reloaded.average_power_mw()]],
        title=f"analysis from the saved trace ({path})",
    ))


if __name__ == "__main__":
    main()
