"""Sweep folding: witness certificates, fold families and cohort jobs.

Sweep folding (:mod:`repro.runner.sweepfold`) runs one representative
per equivalence class of a governor sweep and copies its result to every
variant its witness interval covers.  The contract is bit-exactness: a
folded result must equal its own per-run execution byte for byte —
trace, reductions and, for observed runs, the metrics snapshot — and
grouping specs into fold-family jobs must leave report order, labels and
cache entries exactly as per-run execution leaves them.
"""

import os
import random
from dataclasses import replace

import numpy as np
import pytest

from repro.runner import sweepfold
from repro.runner.cohort import execute_cohort
from repro.runner.spec import RunSpec, execute_spec
from repro.sched.params import baseline_config

SEED = 7


def hold_sweep_specs():
    """A 64-variant hold sweep of one app: ``hold_ms`` 34-160 in 2 ms steps.

    The variants differ only in the interactive governor's hold time, so
    the grid is one fold family.
    """
    base = baseline_config()
    return [
        RunSpec(
            "pdf-reader", seed=SEED, max_seconds=1.0, trace_policy="none",
            reductions=("power_summary",),
            scheduler=replace(
                base, name=f"gov-hold-{hold}",
                governor=replace(base.governor, hold_ms=hold),
            ),
        )
        for hold in range(34, 162, 2)
    ]


def fold_counts():
    """The process-wide ``(representatives, folded)`` fold counters."""
    from repro.obs.metrics import global_metrics

    snap = global_metrics().snapshot()
    return (
        snap.counter("engine.batch.fold.representatives"),
        snap.counter("engine.batch.fold.folded"),
    )


class TestSweepWitness:
    def test_down_threshold_interval(self):
        w = sweepfold.SweepWitness()
        w.note_down(0.30, True)   # 0.30 < dth held: dth must stay > 0.30
        w.note_down(0.80, False)  # 0.80 >= dth held: dth must stay <= 0.80
        assert w.covers(0.50, 80)
        assert w.covers(0.80, 80)
        assert not w.covers(0.30, 80)  # would flip the first comparison
        assert not w.covers(0.81, 80)  # would flip the second

    def test_hold_interval_is_integral(self):
        w = sweepfold.SweepWitness()
        w.note_hold(60, True)    # 60 < hold: hold must stay >= 61
        w.note_hold(90, False)   # 90 >= hold: hold must stay <= 90
        assert w.covers(0.5, 61)
        assert w.covers(0.5, 90)
        assert not w.covers(0.5, 60)
        assert not w.covers(0.5, 91)

    def test_unconstrained_witness_covers_everything(self):
        w = sweepfold.SweepWitness()
        assert w.covers(0.01, 0)
        assert w.covers(0.99, 10_000)

    def test_fold_key_separates_non_swept_parameters(self):
        base = baseline_config()
        def spec(**gov):
            sched = replace(base, governor=replace(base.governor, **gov))
            return RunSpec("browser", scheduler=sched, max_seconds=1.0)

        a = sweepfold.fold_key(spec(hold_ms=40))
        b = sweepfold.fold_key(spec(hold_ms=120, down_threshold=0.4))
        c = sweepfold.fold_key(spec(hold_ms=40, target_load=0.8))
        assert a == b          # swept axes are free
        assert a != c          # arithmetic parameters are not


class TestSweepFolding:
    def _grid(self, holds, downs=(0.50,), seconds=1.0, observe=False):
        base = baseline_config()
        specs = []
        for down in downs:
            for hold in holds:
                sched = replace(
                    base,
                    name=f"gov-d{round(down * 100)}-h{hold}",
                    governor=replace(
                        base.governor, down_threshold=down, hold_ms=hold
                    ),
                )
                specs.append(RunSpec(
                    "pdf-reader", scheduler=sched, seed=SEED,
                    max_seconds=seconds, reductions=("power_summary",),
                    observe=observe,
                ))
        return specs

    def _assert_results_equal(self, specs, ref, got):
        for spec, a, b in zip(specs, ref, got):
            assert b.spec_key == spec.key()
            assert a.scalars() == b.scalars(), spec.scheduler.name
            assert np.array_equal(
                np.asarray(a.trace.power_mw), np.asarray(b.trace.power_mw)
            ), spec.scheduler.name

    @pytest.mark.parametrize("observe", [False, True])
    def test_hold_sweep_folds_and_matches_per_run(self, observe):
        specs = self._grid(holds=range(60, 108, 4), observe=observe)  # 12 variants
        _, before = fold_counts()
        ref = [execute_spec(s) for s in specs]
        got = execute_cohort(specs)
        _, after = fold_counts()
        assert after > before, "a 4 ms-step hold sweep must fold"
        self._assert_results_equal(specs, ref, got)

    def test_two_axis_grid_matches_per_run(self):
        specs = self._grid(holds=(70, 80, 90), downs=(0.49, 0.50, 0.51))
        ref = [execute_spec(s) for s in specs]
        got = execute_cohort(specs)
        self._assert_results_equal(specs, ref, got)

    def test_one_representative_per_equivalence_class(self):
        """A shuffled two-axis grid simulates exactly one member per class.

        Each member's own witness names its class; covering must be that
        equivalence, and the cohort must run no more representatives.
        """
        from repro.runner.spec import prepare_app_run

        specs = self._grid(
            holds=range(40, 100, 10), downs=(0.40, 0.45, 0.50, 0.55),
            seconds=0.5,
        )
        random.Random(SEED).shuffle(specs)
        intervals = []
        for spec in specs:
            prepared = prepare_app_run(spec)
            w = sweepfold.install_witness(prepared.sim)
            prepared.sim.run()
            intervals.append((w, (w.dn_gt, w.dn_le, w.hold_lo, w.hold_hi)))
        for w, box in intervals:
            for spec, (_, other) in zip(specs, intervals):
                covered = w.covers(*sweepfold.swept_values(spec))
                assert covered == (box == other), spec.scheduler.name
        classes = len({box for _, box in intervals})
        assert 1 < classes < len(specs)

        ref = [execute_spec(s) for s in specs]
        reps0, folded0 = fold_counts()
        got = execute_cohort(specs)
        reps1, folded1 = fold_counts()
        assert reps1 - reps0 == classes
        assert folded1 - folded0 == len(specs) - classes
        self._assert_results_equal(specs, ref, got)
        for a, b in zip(ref, got):
            assert a.reductions == b.reductions

    def test_cloned_results_do_not_alias(self):
        specs = self._grid(holds=(78, 80, 82))
        got = execute_cohort(specs)
        got[0].trace.power_mw[0] = -1.0
        assert got[1].trace.power_mw[0] != -1.0
        got[0].reductions["power_summary"]["_poison"] = True
        assert "_poison" not in got[1].reductions["power_summary"]

    def test_observed_cache_entries_match_per_run(self, tmp_path):
        from repro.runner import BatchRunner, ResultCache

        specs = self._grid(holds=(70, 90), observe=True)
        entries = []
        for cohorts in (False, True):
            cache = ResultCache(root=str(tmp_path / f"cohorts-{cohorts}"))
            BatchRunner(workers=1, cache=cache, cohorts=cohorts).run(
                specs
            ).raise_on_failure()
            entries.append([
                open(os.path.join(cache.entry_dir(s), cache.RESULT_FILE)).read()
                for s in specs
            ])
        assert entries[0] == entries[1]

    def test_hold_sweep_folds_onto_seven_representatives(self):
        """Folding simulates 7 of the 64 variants and clones the other 57.

        A fold that stops resolving members runs more representatives;
        the per-run scalars pin the clones' values.
        """
        from repro.runner import BatchRunner

        specs = hold_sweep_specs()
        per_run = BatchRunner(workers=1, cohorts=False).run(specs)
        per_run.raise_on_failure()
        reps0, folded0 = fold_counts()
        folded = BatchRunner(workers=1, cohorts=True).run(specs)
        folded.raise_on_failure()
        reps1, folded1 = fold_counts()
        assert (reps1 - reps0, folded1 - folded0) == (7, 57)
        for a, b in zip(per_run.results, folded.results):
            assert a.scalars() == b.scalars()


class TestCohortJobOrdering:
    """BatchReport.jobs must keep submit order and stable labels even
    when cohort grouping reorders execution."""

    def _interleaved_specs(self):
        base = baseline_config()
        specs = []
        for i in range(3):
            for app in ("pdf-reader", "bbench"):
                sched = replace(
                    base,
                    name=f"gov-hold-{60 + 10 * i}",
                    governor=replace(base.governor, hold_ms=60 + 10 * i),
                )
                specs.append(RunSpec(
                    app, scheduler=sched, seed=i, max_seconds=0.5,
                    trace_policy="none",
                ))
        return specs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_keeps_submit_order(self, workers):
        from repro.runner import BatchRunner

        specs = self._interleaved_specs()
        report = BatchRunner(workers=workers, cohorts=True).run(specs)
        report.raise_on_failure()
        assert [j.index for j in report.jobs] == list(range(len(specs)))
        assert [j.label for j in report.jobs] == [s.label() for s in specs]
        for spec, result in zip(specs, report.results):
            assert result is not None
            assert result.spec_key == spec.key()
            assert result.workload == spec.workload


class TestCohortGrouping:
    """With ``cohorts=True`` only a fold family travels as one job."""

    def _submitted(self, monkeypatch, specs):
        """Run ``specs`` pooled; return submitted group sizes and cohort events."""
        from repro.runner import BatchRunner
        from repro.runner.executors import PoolExecutor

        sizes, cohort_starts = [], []
        submit = PoolExecutor.submit

        def recording_submit(self, token, group, timeout_s):
            sizes.append(len(group))
            submit(self, token, group, timeout_s)

        def on_event(event):
            if event.event == "cohort_start":
                cohort_starts.append(event.extra["size"])

        monkeypatch.setattr(PoolExecutor, "submit", recording_submit)
        report = BatchRunner(workers=2, cohorts=True, on_event=on_event).run(specs)
        report.raise_on_failure()
        return sizes, cohort_starts

    def test_param_grid_submits_single_spec_groups(self, monkeypatch):
        from repro.experiments.fig11_12_13_params import param_sweep_specs

        specs = [
            replace(spec, max_seconds=0.5)
            for spec in param_sweep_specs(apps=["pdf-reader"])
        ]
        sizes, cohort_starts = self._submitted(monkeypatch, specs)
        assert sizes == [1] * 9
        assert cohort_starts == []

    def test_fold_family_submits_one_group(self, monkeypatch):
        base = baseline_config()
        specs = [
            RunSpec(
                "pdf-reader", seed=SEED, max_seconds=0.5, trace_policy="none",
                scheduler=replace(
                    base, name=f"h{hold}",
                    governor=replace(base.governor, hold_ms=hold),
                ),
            )
            for hold in range(60, 108, 4)
        ]
        sizes, cohort_starts = self._submitted(monkeypatch, specs)
        assert sizes == [12]
        assert cohort_starts == [12]
