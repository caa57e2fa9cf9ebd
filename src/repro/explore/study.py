"""Resumable design-space exploration studies over the batch runner.

:class:`ExploreStudy` wires a :class:`~repro.explore.space.DesignSpace`
and a :class:`~repro.explore.samplers.Sampler` onto the repository's
execution spine: every sampler batch lowers to ``RunSpec`` lists
(``trace_policy="none"`` + declared reductions, so each point ships a
few hundred bytes), runs through one :class:`~repro.runner.BatchRunner`
(parallel, fault-tolerant, content-addressed-cached), and folds back
into ``(perf_cost, energy_mj)`` minimization objectives.

Crash-resume is the **result cache**: attach one to the runner and a
re-run replays every simulation whose spec hash it has seen (same
point, fidelity, seed — across studies and processes), so an
interrupted study resumes where it stopped.  Only successes are cached,
so a failed evaluation runs again.

Progress rides on the global metrics registry: the ``explore.points``
counter and the ``explore.frontier_size`` / ``explore.hypervolume``
gauges update after every batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import repro
from repro.explore.pareto import hypervolume, pareto_indices, reference_point
from repro.explore.samplers import Evaluation, ObservedPoint, Sampler
from repro.explore.space import DesignPoint, DesignSpace, lower_point
from repro.obs.logsetup import get_logger
from repro.obs.metrics import global_metrics
from repro.runner.batch import BatchRunner
from repro.runner.spec import RunResult

log = get_logger("explore.study")

__all__ = ["EvaluatedPoint", "ExploreStudy", "StudyResult", "point_objectives"]

#: Floor for degenerate FPS readings (a stalled pipeline at a short
#: horizon); keeps the seconds-per-frame cost finite and strictly
#: ordered below any healthy configuration.
_MIN_FPS = 0.1


def point_objectives(results: Sequence[RunResult]) -> tuple[float, float]:
    """Fold one point's per-workload results into ``(perf_cost, energy)``.

    Performance cost sums seconds over the mix — latency apps
    contribute their latency, FPS apps their seconds-per-frame — and
    energy sums millijoules, both minimized.  Summing keeps the fold
    associative over the mix; per-workload scalars stay available in
    the artifact for anyone needing a different aggregate.
    """
    perf_cost = 0.0
    energy_mj = 0.0
    for result in results:
        if result.metric == "latency":
            assert result.latency_s is not None
            perf_cost += result.latency_s
        else:
            perf_cost += 1.0 / max(result.avg_fps or 0.0, _MIN_FPS)
        energy_mj += result.energy_mj
    return (perf_cost, energy_mj)


@dataclass
class EvaluatedPoint:
    """One completed (point, fidelity) evaluation."""

    point: DesignPoint
    fidelity: float
    objectives: Optional[tuple[float, float]]
    spec_keys: list[str]
    #: Per-workload scalar summaries (metric value, power, energy).
    workloads: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def is_full(self) -> bool:
        return self.fidelity >= 1.0


@dataclass
class StudyResult:
    """Everything an exploration produced, ready to render or archive."""

    space: DesignSpace
    sampler_name: str
    full_horizon_s: float
    seed: int
    evaluations: list[EvaluatedPoint]
    cache_hits: int
    cache_misses: int
    wall_s: float

    # -- derived views ------------------------------------------------------

    def full_evaluations(self) -> list[EvaluatedPoint]:
        return [e for e in self.evaluations if e.is_full and e.objectives is not None]

    def frontier(self) -> list[EvaluatedPoint]:
        """Non-dominated full-horizon evaluations (the study's answer)."""
        full = self.full_evaluations()
        return [full[i] for i in pareto_indices([e.objectives for e in full])]

    def ref_point(self) -> Optional[tuple[float, ...]]:
        full = self.full_evaluations()
        if not full:
            return None
        return reference_point([e.objectives for e in full])

    def hypervolume(self, ref: Optional[Sequence[float]] = None) -> float:
        full = self.full_evaluations()
        if not full:
            return 0.0
        if ref is None:
            ref = self.ref_point()
        return hypervolume([e.objectives for e in full], ref)

    def full_horizon_simulations(self) -> int:
        """Simulation count spent at fidelity 1.0 (the grid-cost yardstick)."""
        return sum(len(e.spec_keys) for e in self.evaluations if e.is_full)

    # -- artifacts -----------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        ref = self.ref_point()
        frontier = sorted(self.frontier(), key=lambda e: e.objectives)
        return {
            "study": {
                "version": repro.__version__,
                "space": self.space.manifest(),
                "space_key": self.space.key(),
                "sampler": self.sampler_name,
                "full_horizon_s": self.full_horizon_s,
                "seed": self.seed,
            },
            "n_evaluations": len(self.evaluations),
            "n_points": len({e.point.key() for e in self.evaluations}),
            "full_horizon_simulations": self.full_horizon_simulations(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_s": round(self.wall_s, 3),
            "ref_point": list(ref) if ref else None,
            "hypervolume": self.hypervolume(),
            "frontier_size": len(frontier),
            "frontier": [
                {
                    "params": e.point.as_dict(),
                    "perf_cost": e.objectives[0],
                    "energy_mj": e.objectives[1],
                    "area_mm2": e.point.topology().area_mm2(),
                    "workloads": e.workloads,
                }
                for e in frontier
            ],
            "points": [
                {
                    "key": e.point.key(),
                    "params": e.point.as_dict(),
                    "fidelity": e.fidelity,
                    "objectives": list(e.objectives) if e.objectives else None,
                }
                for e in self.evaluations
            ],
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    def render(self) -> str:
        from repro.core.report import render_table

        rows = []
        for e in sorted(self.frontier(), key=lambda e: e.objectives):
            t = e.point.topology()
            rows.append([
                t.core_config().label(),
                f"{t.little_max_khz // 1000}/{t.big_max_khz // 1000}",
                e.point.scheduler_config().name,
                f"{t.area_mm2():.1f}",
                f"{e.objectives[0]:.3f}",
                f"{e.objectives[1]:.0f}",
            ])
        return render_table(
            ["cores", "MHz L/B", "scheduler", "mm2", "perf cost (s)", "energy (mJ)"],
            rows,
            title=(
                f"Pareto frontier: {len(rows)} of "
                f"{len(self.full_evaluations())} full-horizon points "
                f"({self.sampler_name} sampler, "
                f"{self.full_horizon_simulations()} full-horizon sims, "
                f"hv {self.hypervolume():.4g}, {self.wall_s:.1f}s wall)"
            ),
        )


class ExploreStudy:
    """Drives one exploration: sampler batches -> runner -> objectives.

    Args:
        space: the feasible region to search.
        sampler: batch strategy (grid / random / adaptive).
        runner: a configured :class:`BatchRunner`; attach a cache to
            make the study resumable.
        full_horizon_s: simulated seconds of a fidelity-1.0 run; a
            rung's horizon is ``fidelity * full_horizon_s`` (floored at
            0.1 s so every run simulates something).
        seed: RNG seed shared by every lowered spec.
    """

    def __init__(
        self,
        space: DesignSpace,
        sampler: Sampler,
        runner: Optional[BatchRunner] = None,
        full_horizon_s: float = 8.0,
        seed: int = 0,
    ):
        if full_horizon_s <= 0:
            raise ValueError(f"full_horizon_s must be positive, got {full_horizon_s}")
        self.space = space
        self.sampler = sampler
        # Default runner groups fold families, so governor sweeps fold
        # (bit-identical results to per-run execution).
        self.runner = (
            runner if runner is not None else BatchRunner(workers=1, cohorts=True)
        )
        self.full_horizon_s = full_horizon_s
        self.seed = seed

    # -- execution -----------------------------------------------------------

    def _horizon(self, fidelity: float) -> float:
        return max(0.1, round(self.full_horizon_s * fidelity, 3))

    def _evaluate_batch(
        self, batch: Sequence[Evaluation]
    ) -> tuple[list[EvaluatedPoint], int, int]:
        """Run one sampler batch; returns (evaluations, hits, misses)."""
        lowered = [
            (ev, lower_point(
                ev.point, max_seconds=self._horizon(ev.fidelity), seed=self.seed
            ))
            for ev in batch
        ]
        report = self.runner.run([s for _, specs in lowered for s in specs])
        evaluations: list[EvaluatedPoint] = []
        cursor = 0
        for ev, specs in lowered:
            chunk = report.results[cursor:cursor + len(specs)]
            cursor += len(specs)
            ok = [r for r in chunk if r is not None]
            evaluations.append(EvaluatedPoint(
                point=ev.point,
                fidelity=ev.fidelity,
                objectives=point_objectives(ok) if len(ok) == len(specs) else None,
                spec_keys=[s.key() for s in specs],
                workloads={
                    r.workload: {
                        "metric": r.metric,
                        "value": r.performance_value(),
                        "avg_power_mw": r.avg_power_mw,
                        "energy_mj": r.energy_mj,
                    }
                    for r in ok
                },
            ))
        return evaluations, report.cache_hits, report.cache_misses

    def run(self) -> StudyResult:
        import time

        points = self.space.feasible_points()
        if not points:
            raise ValueError("design space has no feasible points under the budget")
        log.info(
            "explore: %d feasible points (%d cartesian), sampler=%s, horizon=%.2fs",
            len(points), self.space.size(), self.sampler.name, self.full_horizon_s,
        )
        reg = global_metrics()
        evaluations: list[EvaluatedPoint] = []
        cache_hits = cache_misses = 0
        t0 = time.monotonic()
        self.sampler.start(points)
        while True:
            batch = self.sampler.next_batch()
            if not batch:
                break
            batch_evals, hits, misses = self._evaluate_batch(batch)
            cache_hits += hits
            cache_misses += misses
            evaluations.extend(batch_evals)
            self.sampler.observe([
                ObservedPoint(
                    evaluation=Evaluation(e.point, e.fidelity),
                    objectives=e.objectives,
                )
                for e in batch_evals
            ])
            reg.counter("explore.points").inc(len(batch_evals))
            full = [
                e.objectives
                for e in evaluations
                if e.is_full and e.objectives is not None
            ]
            frontier_size = len(pareto_indices(full)) if full else 0
            hv = hypervolume(full, reference_point(full)) if full else 0.0
            reg.gauge("explore.frontier_size").set(frontier_size)
            reg.gauge("explore.hypervolume").set(hv)
            log.info(
                "explore: batch of %d done (%d evals total, "
                "frontier %d, hv %.4g)",
                len(batch), len(evaluations), frontier_size, hv,
            )
        return StudyResult(
            space=self.space,
            sampler_name=self.sampler.name,
            full_horizon_s=self.full_horizon_s,
            seed=self.seed,
            evaluations=evaluations,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
            wall_s=time.monotonic() - t0,
        )
