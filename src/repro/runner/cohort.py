"""Execution of one runner group: a list of :class:`RunSpec`.

Every group a :class:`~repro.runner.batch.BatchRunner` hands an
executor runs here, through :func:`execute_cohort`, and comes back as
one :class:`RunResult` per spec.  This module is the one place that
tells a lone spec from a *fold family*: specs identical except for the
two comparison-only governor axes (``down_threshold`` / ``hold_ms``,
see :mod:`repro.runner.sweepfold`).  A lone spec, of any kind, runs
through :func:`repro.runner.spec.execute_spec`.  A family's
representatives run one at a time on the solo
:class:`~repro.sim.engine.Simulator` with a witness attached, each the
first member still unresolved in submit order —
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
    execute_spec,
    finalize_result,
    finish_app_run,
    prepare_app_run,
)


def group_indices(specs: Sequence[RunSpec]) -> list[list[int]]:
    """Partition spec indices into execution groups (singletons included).

    Each fold family (:func:`repro.runner.sweepfold.fold_key`) becomes
    one group; a spec with no fold key is a group of its own, and a
    lone spec computes no fold key at all.  Groups keep first-appearance
    order and list member indices in submit order.
    """
    if len(specs) < 2:
        return [[i] for i in range(len(specs))]
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


def _run_representative(spec: RunSpec):
    """Simulate one family member with a witness; ``(result, witness)``.

    Each run is finalized before the next is prepared, so at most one
    dense trace is being built at a time.
    """
    prepared = prepare_app_run(spec)
    witness = sweepfold.install_witness(prepared.sim)
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
    per equivalence class.  Specs outside any family, whatever their
    kind, run once each through ``execute_spec``.
    """
    metrics = global_metrics()
    results: list[Optional[RunResult]] = [None] * len(specs)
    for group in group_indices(specs):
        if len(group) == 1:
            results[group[0]] = execute_spec(specs[group[0]])
            continue
        while group:
            rep, *group = group
            results[rep], witness = _run_representative(specs[rep])
            uncovered = []
            for j in group:
                if witness is not None and witness.covers(
                    *sweepfold.swept_values(specs[j])
                ):
                    results[j] = sweepfold.clone_result(results[rep], specs[j])
                else:
                    uncovered.append(j)
            metrics.counter("engine.batch.fold.representatives").inc()
            metrics.counter("engine.batch.fold.folded").inc(
                len(group) - len(uncovered)
            )
            group = uncovered
    return results  # type: ignore[return-value]
