"""Fold-family execution of grouped :class:`RunSpec` jobs.

With ``cohorts=True`` the :class:`~repro.runner.batch.BatchRunner` hands
this module *fold families*: specs identical except for the two
comparison-only governor axes (``down_threshold`` / ``hold_ms``, see
:mod:`repro.runner.sweepfold`).  Representatives run one at a time on
the solo :class:`~repro.sim.engine.Simulator` with a witness attached,
each the first member still unresolved in submit order —
:func:`repro.runner.spec.prepare_app_run`, ``sim.run()``, then the exact
per-spec tail (:func:`finish_app_run` + :func:`finalize_result`) a solo
run uses — and every member a witness interval covers receives a copy
of its representative's result instead of a simulation.  Results, and
therefore cache entries, stay per-spec and bit-identical to per-run
execution.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.metrics import global_metrics
from repro.runner import sweepfold
from repro.runner.spec import (
    RunResult,
    RunSpec,
    finalize_result,
    finish_app_run,
    prepare_app_run,
)


def group_indices(specs: Sequence[RunSpec]) -> list[list[int]]:
    """Partition spec indices into execution groups (singletons included).

    Each fold family (:func:`repro.runner.sweepfold.fold_key`) becomes
    one group; a spec with no fold key is a group of its own.  Groups
    keep first-appearance order and list member indices in submit order.
    """
    by_key: dict[str, list[int]] = {}
    order: list[list[int]] = []
    for i, spec in enumerate(specs):
        key = sweepfold.fold_key(spec)
        if key is None:
            order.append([i])
        elif key in by_key:
            by_key[key].append(i)
        else:
            by_key[key] = [i]
            order.append(by_key[key])
    return order


def _run_one(spec: RunSpec, fold: bool):
    """Simulate one spec to completion; returns ``(result, witness)``.

    Each run is finalized before the next is prepared, so at most one
    dense trace is being built at a time.
    """
    prepared = prepare_app_run(spec)
    witness = sweepfold.install_witness(prepared.sim) if fold else None
    prepared.sim.run()
    result = finalize_result(spec, finish_app_run(prepared))
    return result, witness


def execute_cohort(specs: Sequence[RunSpec]) -> list[RunResult]:
    """Run one group of specs, folding what fold families allow.

    Returns one :class:`RunResult` per spec, in input order, each
    identical to what :func:`repro.runner.spec.execute_spec` would have
    produced.

    Specs identical except for the two comparison-only governor axes
    form *fold families* (see :mod:`repro.runner.sweepfold`).  The first
    unresolved member in submit order runs with a witness attached, and
    every member its witness covers receives a copy of its result
    instead of a simulation; repeat until the family is empty.  Covering
    is an equivalence on a family, so this simulates exactly one member
    per equivalence class.  Specs outside any family run once each.
    """
    metrics = global_metrics()
    results: list[Optional[RunResult]] = [None] * len(specs)
    for group in group_indices(specs):
        fold = len(group) > 1
        while group:
            rep, *group = group
            results[rep], witness = _run_one(specs[rep], fold)
            uncovered = []
            for j in group:
                if witness is not None and witness.covers(
                    *sweepfold.swept_values(specs[j])
                ):
                    results[j] = sweepfold.clone_result(results[rep], specs[j])
                else:
                    uncovered.append(j)
            if fold:
                metrics.counter("engine.batch.fold.representatives").inc()
                metrics.counter("engine.batch.fold.folded").inc(
                    len(group) - len(uncovered)
                )
            group = uncovered
    return results  # type: ignore[return-value]
