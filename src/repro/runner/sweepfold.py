"""Provable sweep folding: run one representative per equivalence class.

Two sweep variants that differ only in a *comparison-only* parameter —
one the simulation compares against but never uses arithmetically — are
bit-identical runs whenever every comparison resolves the same way.
The interactive governor has exactly two such parameters:

- ``GovernorParams.down_threshold`` is read only at the
  ``util < down_threshold`` test in
  :meth:`~repro.sched.governor.InteractiveGovernor._next_freq_value`;
- ``GovernorParams.hold_ms`` is read only at the
  ``ticks_since_raise < hold_ms`` test guarded by the former.

Every frequency decision of the engine flows through that one
function, at the window closes of ``InteractiveGovernor.tick_span``
(a reference tick is its one-tick span), so a
:class:`SweepWitness` attached there sees *every* read of the two
parameters a run performs.  The witness maintains the interval of
alternative parameter values that would have resolved every observed
comparison identically; by induction over ticks, any variant inside
the interval produces a byte-identical trace, metrics snapshot, and
reductions — its result can be *copied* instead of simulated.

Dry-run probes (``Governor.tick_span(commit=False)``) run with the
witness detached, so a witness records exactly the comparisons of its
own run's committed decisions: one per window close, whichever tick
path covers it.  A variant the witness covers takes the same branch at
each of them, so its run is identical and its own witness would record
the same comparisons and hence the same interval.  Covering is
therefore an equivalence on a family, with one class per distinct
interval.

:func:`repro.runner.cohort.execute_cohort` uses this to collapse
governor sweeps: specs identical modulo the two axes form a *fold
family*; the first unresolved member runs on the solo engine, its
witness resolves every member it covers, and the loop repeats.  Any
witness fold needs at least one simulation per class, and this loop
runs exactly one, whatever order it picks members in.
"""

from __future__ import annotations

import copy
import json
import math
from typing import Optional

from repro.runner.spec import RunResult, RunSpec
from repro.sched.governor import InteractiveGovernor


class SweepWitness:
    """Interval certificate for ``(down_threshold, hold_ms)`` equivalence.

    One instance is shared by every governor of a simulation (both
    cluster domains accumulate into the same bounds).  After the run,
    :meth:`covers` is true exactly for the parameter pairs that would
    have taken the same branch at every recorded comparison — the
    representative's own pair always qualifies.
    """

    __slots__ = ("dn_gt", "dn_le", "hold_lo", "hold_hi")

    def __init__(self) -> None:
        #: ``down_threshold`` must satisfy ``dn_gt < value <= dn_le``.
        self.dn_gt = -math.inf
        self.dn_le = math.inf
        #: ``hold_ms`` must satisfy ``hold_lo <= value <= hold_hi``.
        self.hold_lo = 0
        self.hold_hi = math.inf

    def note_down(self, util: float, below: bool) -> None:
        """Record one ``util < down_threshold`` comparison outcome."""
        if below:
            # Branch taken: alternatives need util < value too.
            if util > self.dn_gt:
                self.dn_gt = util
        elif util < self.dn_le:
            # Branch not taken: alternatives need value <= util.
            self.dn_le = util

    def note_hold(self, ticks_since_raise: int, held: bool) -> None:
        """Record one ``ticks_since_raise < hold_ms`` comparison outcome."""
        if held:
            # hold_ms is integral: tsr < value  <=>  value >= tsr + 1.
            if ticks_since_raise + 1 > self.hold_lo:
                self.hold_lo = ticks_since_raise + 1
        elif ticks_since_raise < self.hold_hi:
            self.hold_hi = ticks_since_raise

    def covers(self, down_threshold: float, hold_ms: int) -> bool:
        """Would a run with these values be bit-identical to the witness's?"""
        return (
            self.dn_gt < down_threshold <= self.dn_le
            and self.hold_lo <= hold_ms <= self.hold_hi
        )


def install_witness(sim) -> Optional[SweepWitness]:
    """Attach one shared witness to every governor of ``sim``.

    Returns ``None`` — fold this run conservatively, i.e. not at all —
    unless every governor is exactly :class:`InteractiveGovernor` (a
    subclass could read the swept parameters at unhooked sites).
    """
    governors = list(sim.governors.values())
    if not governors or any(type(g) is not InteractiveGovernor for g in governors):
        return None
    witness = SweepWitness()
    for gov in governors:
        gov._witness = witness
    return witness


def fold_key(spec: RunSpec) -> Optional[str]:
    """Spec identity modulo the two foldable axes, or ``None`` if ineligible.

    Specs sharing a key are identical simulations except for
    ``governor.down_threshold`` / ``governor.hold_ms`` (and the
    display-only scheduler name), so a witness interval from one
    resolves the others.
    """
    if spec.kind != "app":
        return None
    manifest = spec.manifest()
    sched = dict(manifest["scheduler"])
    sched["name"] = None
    sched["governor"] = dict(
        sched["governor"], down_threshold=None, hold_ms=None
    )
    manifest["scheduler"] = sched
    return json.dumps(manifest, sort_keys=True, separators=(",", ":"))


def swept_values(spec: RunSpec) -> tuple[float, int]:
    """The spec's position on the two fold axes."""
    gov = spec.scheduler.governor
    return float(gov.down_threshold), int(gov.hold_ms)


def clone_result(result: RunResult, spec: RunSpec) -> RunResult:
    """An independent copy of ``result`` re-keyed for a covered ``spec``.

    The simulated payload is byte-identical by the witness argument;
    only the spec identity differs.  Mutable payloads are deep-copied
    so downstream consumers of one variant cannot alias another's.
    """
    out = copy.copy(result)
    out.spec_key = spec.key()
    out.metrics = copy.deepcopy(result.metrics)
    out.reductions = copy.deepcopy(result.reductions)
    out.trace = copy.deepcopy(result.trace)
    return out

