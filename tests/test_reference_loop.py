"""Pins of the reference tick loop, the oracle every fast path matches.

``test_engine_fastpath.py`` compares each fast path against the
reference loop, but computes both sides from the current code, so a
change inside ``Simulator._step`` moves both sides together.  The
digests below were recorded from the reference loop itself and do not
move with it: every Table II app at seed 7 for 2 simulated seconds,
with the fast paths (idle/busy fast-forward, deferred power) pinned off.
The default configuration, spans and pipeline staging on, must hit the
same digests, also when the pipeline flushes every few staged rows.
It also checks the runqueue invariant the loop counts on: every task on
a runqueue is RUNNABLE, under each scheduler.

Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_reference_loop.py
"""

import hashlib
import json
import os

import pytest

from repro.platform.chip import exynos5422
from repro.platform.coretypes import CoreType
from repro.platform.perfmodel import COMPUTE_BOUND
from repro.platform.power import DeferredPowerPipeline
from repro.runner.spec import RunSpec, finish_app_run, prepare_app_run
from repro.sched.cluster_switch import ClusterSwitchingScheduler
from repro.sched.efficiency_sched import EfficiencyScheduler
from repro.sched.parallelism_sched import ParallelismAwareScheduler
from repro.sim.engine import SimConfig, Simulator
from repro.sim.task import Channel, Sleep, Task, TaskState, WaitSignal, Work
from repro.workloads.mobile import MOBILE_APP_NAMES, make_app

SEED = 7
HORIZON_S = 2.0

REFERENCE_DIGESTS = {
    "pdf-reader": "3e9bd2d41151c85089c127b415e4a394c298697791eef1d90c3c733cc77b033f",
    "video-editor": "2242277bcc5f412c8217d8d0ccfc8ad07bbb2461fb576e83f1a56ba5c419d556",
    "photo-editor": "a14d140413e604db101eca5dc4cdb677f46dd6911a67c89e4a191288c4032faa",
    "bbench": "8689a9ea6b2efc6a0d94801749d3e3086f787b7c19237306666472b45e04b6e1",
    "virus-scanner": "aa312bc4948d2f5cddfb009eb49a6c1cc43afcea3fb7c98533a8243befa5324f",
    "browser": "22bb7e8da1c282c66dcad979589956900d565657487e4ee3d1129755b744f9cd",
    "encoder": "13f434256646e7044183e53a154648661b879b1f042d82425b4eac65237d00f2",
    "angry-bird": "4c92dde9f5d3c9a8353e6952ae763faa67ccfdad9c5c0eed5fe6fe8d0656b78a",
    "eternity-warrior-2": "6186a6bfa89d1d0e95cdb7ba00b18c38b16f8424d9615bf3f16b416f318bedd9",
    "fifa-15": "fe564270b2140466adcb289cdcd7e461baaf5f198141a362d1fc32c8537efd68",
    "video-player": "dcaaaf0ef80e65f76001fb55e9a79051f0337d93a1f49a997eb1748e709a1e65",
    "youtube": "52a9d6a39fdd7435f9c51e10c06d6ee6128196c677b8794bce1befd4019b9370",
}


def pinned_run(app: str, fast: bool):
    """Run ``app`` with the fast paths on or off; returns ``(sim, result)``."""
    prepared = prepare_app_run(RunSpec(app, seed=SEED, max_seconds=HORIZON_S))
    assert prepared.sim.fastpath_enabled is fast
    assert prepared.sim.deferred_power_enabled is fast
    prepared.sim.run()
    return prepared.sim, finish_app_run(prepared)


def reference_run(app: str):
    """Run ``app`` on the reference loop; returns ``(sim, result)``."""
    return pinned_run(app, fast=False)


def digest(result) -> str:
    """SHA-256 over the trace columns and the JSON scalars."""
    trace = result.trace
    h = hashlib.sha256()
    columns = [trace.busy, trace.power_mw, trace.wakeups]
    for ct in (CoreType.LITTLE, CoreType.BIG):
        columns += [trace.freq_khz(ct), trace.cpu_power_mw(ct)]
    for column in columns:
        h.update(column.tobytes())
    h.update(json.dumps(result.scalars(), sort_keys=True).encode())
    return h.hexdigest()


@pytest.fixture
def reference_env(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE_FASTPATH", "0")


@pytest.mark.parametrize("app", MOBILE_APP_NAMES)
def test_reference_digest_pinned(app, reference_env):
    sim, result = reference_run(app)
    assert sim.fastforward_ticks == 0
    assert digest(result) == REFERENCE_DIGESTS[app]


@pytest.mark.parametrize(
    "flush_threshold", [None, 5], ids=["default-flush", "flush-every-5-rows"]
)
@pytest.mark.parametrize("app", MOBILE_APP_NAMES)
def test_fast_path_digest_pinned(app, flush_threshold, monkeypatch):
    """Spans and pipeline staging write the reference loop's trace; a
    small flush threshold flushes staged rows mid-run, next to spans."""
    monkeypatch.delenv("REPRO_ENGINE_FASTPATH", raising=False)
    if flush_threshold is not None:
        monkeypatch.setattr(
            DeferredPowerPipeline, "_FLUSH_THRESHOLD", flush_threshold
        )
    _, result = pinned_run(app, fast=True)
    assert digest(result) == REFERENCE_DIGESTS[app]


def test_digest_table_covers_every_app():
    assert sorted(REFERENCE_DIGESTS) == sorted(MOBILE_APP_NAMES)


def assert_runqueues_runnable(sim: Simulator) -> None:
    for core in sim.cores:
        for task in core.runqueue:
            assert task.state is TaskState.RUNNABLE, (sim.tick, core, task)


SCHEDULERS = pytest.mark.parametrize(
    "factory",
    [None, EfficiencyScheduler, ParallelismAwareScheduler, ClusterSwitchingScheduler],
    ids=["hmp", "efficiency", "parallelism", "cluster-switch"],
)


def run_checked(factory, install) -> Simulator:
    sim = Simulator(SimConfig(
        chip=exynos5422(screen_on=True), scheduler_factory=factory,
        max_seconds=1.0, seed=SEED,
    ))
    install(sim)
    sim.add_tick_hook(assert_runqueues_runnable)
    sim.run()
    assert_runqueues_runnable(sim)
    return sim


@SCHEDULERS
@pytest.mark.parametrize("app", MOBILE_APP_NAMES)
def test_runqueues_hold_only_runnable_tasks(app, factory):
    """``SimCore.nr_running`` counts the runqueue on this invariant."""
    sim = run_checked(factory, make_app(app).install)
    assert sim.tick > 0


@SCHEDULERS
def test_runqueues_drop_finished_and_waiting_tasks(factory):
    """The apps' threads never exit; these ones wait, signal and finish."""
    chan = Channel("done")

    def burst(n):
        def behavior(ctx):
            for _ in range(n):
                yield Work(0.004)
                yield Sleep(0.003)
            chan.post()
        return behavior

    def waiter(ctx):
        yield WaitSignal(chan, count=4)
        yield Work(0.01)

    def install(sim):
        sim.spawn(Task("waiter", waiter, COMPUTE_BOUND))
        for i in range(8):
            sim.spawn(Task(f"burst{i}", burst(20 + 10 * i), COMPUTE_BOUND))

    sim = run_checked(factory, install)
    assert all(t.state is TaskState.FINISHED for t in sim.tasks)


if __name__ == "__main__":
    os.environ["REPRO_ENGINE_FASTPATH"] = "0"
    for name in MOBILE_APP_NAMES:
        print(f'    "{name}": "{digest(reference_run(name)[1])}",')
