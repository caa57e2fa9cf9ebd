"""Fold-family execution of grouped :class:`RunSpec` jobs.

With ``cohorts=True`` the :class:`~repro.runner.batch.BatchRunner` hands
this module *fold families*: specs identical except for the two
comparison-only governor axes (``down_threshold`` / ``hold_ms``, see
:mod:`repro.runner.sweepfold`).  Representatives run one at a time on
the solo :class:`~repro.sim.engine.Simulator` with a witness attached —
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


#: Most representatives launched per fold family per round.  Small
#: enough that a family with few equivalence classes wastes little work
#: on same-class duplicates, large enough that a many-class family
#: converges in a couple of rounds (each round retires at least one
#: member per family, usually far more).
FOLD_ROUND_REPS = 8


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
    form *fold families* (see :mod:`repro.runner.sweepfold`):
    representatives run with a witness attached, and every family
    member a witness interval provably covers receives a copy of its
    representative's result instead of a simulation.  Uncovered members
    become the next round's representatives, so the loop retires at
    least one member per family per round and the worst case degrades
    to simulating everything.  Specs outside any family run once each.
    """
    metrics = global_metrics()
    results: list[Optional[RunResult]] = [None] * len(specs)

    unresolved: dict[str, list[int]] = {}
    for group in group_indices(specs):
        if len(group) < 2:
            (i,) = group
            results[i], _ = _run_one(specs[i], fold=False)
        else:
            unresolved[sweepfold.fold_key(specs[group[0]])] = group

    while unresolved:
        rep_family: dict[int, str] = {}
        for key, members in unresolved.items():
            pairs = [(i, sweepfold.swept_values(specs[i])) for i in members]
            for i in sweepfold.pick_spread(pairs, FOLD_ROUND_REPS):
                rep_family[i] = key
        witnesses = {}
        for i in rep_family:
            results[i], witnesses[i] = _run_one(specs[i], fold=True)

        # Fold: each representative's witness interval resolves every
        # still-unresolved family member it covers.
        for i, key in rep_family.items():
            unresolved[key].remove(i)
        folded = 0
        for i, key in rep_family.items():
            witness = witnesses[i]
            if witness is None:
                continue
            members = unresolved[key]
            covered = [
                j
                for j in members
                if witness.covers(*sweepfold.swept_values(specs[j]))
            ]
            for j in covered:
                results[j] = sweepfold.clone_result(results[i], specs[j])
                members.remove(j)
            folded += len(covered)
        metrics.counter("engine.batch.fold.representatives").inc(len(rep_family))
        if folded:
            metrics.counter("engine.batch.fold.folded").inc(folded)
        unresolved = {k: v for k, v in unresolved.items() if v}

    return results  # type: ignore[return-value]
