"""Self-tests of the benchmark harness on tiny inputs.

Run with ``python -m pytest bench/`` from the repository root.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

from bench import compare  # noqa: E402
from bench.trace import TARGETS, Tracer, resolve  # noqa: E402
from repro.runner import BatchRunner, ResultCache, RunSpec  # noqa: E402
from repro.sched.params import baseline_config  # noqa: E402


def tiny_specs() -> list[RunSpec]:
    """A 12-member fold family (8 representatives, the rest foldable) plus two solo runs."""
    base = baseline_config()
    specs = [
        RunSpec(
            "pdf-reader",
            scheduler=replace(base, name=f"h{hold}",
                              governor=replace(base.governor, hold_ms=hold)),
            seed=7, max_seconds=0.5, trace_policy="none",
        )
        for hold in range(34, 58, 2)
    ]
    specs += [
        RunSpec("video-player", core_config=config, seed=7, max_seconds=0.5,
                trace_policy="none")
        for config in ("L4", "L2+B1")
    ]
    return specs


def traced_tiny(root: str) -> tuple[Tracer, int]:
    """Run the tiny batch cold then warm under a tracer; return it and the spec count."""
    cache = ResultCache(root=root)
    specs = tiny_specs()
    tracer = Tracer()
    with tracer.installed():
        for name in ("bench.pass1", "bench.pass2"):
            with tracer.span(name):
                BatchRunner(workers=1, cache=cache, cohorts=True).run(specs)
    return tracer, 2 * len(specs)


def snapshot() -> dict:
    """Every attribute of every loaded repro/bench module and traced class."""
    owners = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] in ("repro", "bench")
    ]
    owners += [owner for owner, _attr in map(resolve, (t for _n, t in TARGETS))
               if isinstance(owner, type)]
    return {(id(owner), key): value
            for owner in owners for key, value in list(vars(owner).items())}


def test_tracer_restores_every_patched_attribute(tmp_path):
    from repro.runner import cohort, spec

    BatchRunner(workers=1, cohorts=True).run(tiny_specs()[:2])  # lazy module state
    before = snapshot()
    original = spec.prepare_app_run
    tracer = Tracer()
    with tracer.installed():
        assert cohort.prepare_app_run is not original
        assert spec.prepare_app_run is cohort.prepare_app_run
        BatchRunner(workers=1, cohorts=True).run(tiny_specs()[:2])
    after = snapshot()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed
    assert cohort.prepare_app_run is original
    assert tracer.spans


def test_traced_counts_reconcile_with_specs_submitted(tmp_path):
    tracer, submitted = traced_tiny(str(tmp_path))
    m = tracer.layer_metrics(1)
    assert m["runner.batch.specs"] == submitted
    assert m["runner.sweepfold.folded"] > 0
    assert m["sim.engine.calls"] > 0 and m["runner.cache.hits"] > 0
    resolved = (
        m["sim.engine.calls"] + m["sim.batchengine.lanes"]
        + m["runner.sweepfold.folded"] + m["runner.cache.hits"]
    )
    assert resolved == submitted


def test_self_times_sum_to_traced_wall_time(tmp_path):
    tracer, _ = traced_tiny(str(tmp_path))
    m = tracer.layer_metrics(1)
    own = tracer.self_times()
    assert min(own) > -1e-6
    assert sum(own) == pytest.approx(m["trace.wall_s"], rel=0.05)
    assert 0.5 < m["trace.coverage"] <= 1.0
    assert 0.0 <= m["trace.overhead_frac"] < 0.05


SPEC = {
    "end_to_end": [{"name": "pass1_ref", "unit": "ref", "better": "lower", "bound": 0.1}],
    "per_layer": [],
}


def runs(values, seeds=None, **fields) -> list[dict]:
    seeds = seeds or list(range(len(values)))
    return [
        {
            "bench_version": 1, "workload": "paper", "workers": 1, "seconds": 20,
            "trace": 0, "seed": seed, "attempted": 10, "failed": 0,
            "metrics": {"pass1_ref": {"value": value, "unit": "ref"}},
            **fields,
        }
        for seed, value in zip(seeds, values)
    ]


def verdicts(a: list[dict], b: list[dict]) -> tuple[list[str], bool]:
    lines, bad = compare.compare(a, b, SPEC)
    return [line.split()[-1] for line in lines if "pass1_ref" in line], bad


def test_compare_flags_a_20_percent_slowdown():
    base = [100, 101, 99, 100.5, 99.5]
    result, bad = verdicts(runs(base), runs([v * 1.2 for v in base]))
    assert result == ["worse"] and bad


def test_compare_passes_a_wobble_inside_the_bound():
    base = [100, 102, 98, 101, 99]
    result, bad = verdicts(runs(base), runs([v * 1.03 for v in base[::-1]]))
    assert result == ["ok"] and not bad


def test_compare_calls_a_wide_spread_unresolved():
    base = [70, 90, 100, 110, 130]
    result, bad = verdicts(runs(base), runs([v + 5 for v in base[::-1]]))
    assert result == ["unresolved"] and not bad


def test_compare_flags_a_growing_failed_share():
    _, bad = verdicts(runs([100] * 3), runs([100] * 3, failed=1))
    assert bad


@pytest.mark.parametrize("field, value", [
    ("bench_version", 2), ("workers", 2), ("seconds", 10),
])
def test_compare_refuses_runs_that_differ_in_setup(field, value):
    with pytest.raises(compare.Incomparable):
        compare.compare(runs([100] * 3), runs([100] * 3, **{field: value}), SPEC)


def test_compare_refuses_different_seeds():
    with pytest.raises(compare.Incomparable):
        compare.compare(runs([100] * 3), runs([100] * 3, seeds=[7, 8, 9]), SPEC)
