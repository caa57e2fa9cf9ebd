"""Sampling strategies for the design-space exploration study.

A sampler decides *which* design points to simulate and at *what
fidelity* (fraction of the study's full simulated horizon).  The study
driver runs one batch at a time through the runner and feeds the
objectives back, so samplers are small synchronous state machines:

- :class:`GridSampler` — every feasible point at full fidelity;
- :class:`RandomSampler` — a seeded subset at full fidelity;
- :class:`AdaptiveSampler` — successive halving: the whole candidate
  set at a *short* horizon first, then only the points near the
  resulting Pareto frontier promoted to the full horizon.  Short-run
  objectives rank candidates (Pareto-front peeling order); the promoted
  prefix is capped, so a study spends at most ``rungs[-1].keep`` of a
  grid search's full-horizon simulations.

Fidelity is deterministic and part of each run's ``RunSpec`` identity
(it lowers to ``max_seconds``), so both rungs resolve independently
from the result cache on re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from repro.explore.pareto import pareto_rank_order
from repro.explore.space import DesignPoint

__all__ = [
    "Evaluation",
    "ObservedPoint",
    "Sampler",
    "GridSampler",
    "RandomSampler",
    "AdaptiveSampler",
    "Rung",
    "make_sampler",
]


def _stride_subsample(
    points: Sequence[DesignPoint], max_points: Optional[int]
) -> list[DesignPoint]:
    """At most ``max_points`` of ``points``, taken at an even stride.

    The stride keeps coverage spread across the grid order.
    """
    selected = list(points)
    if max_points is not None and len(selected) > max_points:
        step = len(selected) / max_points
        selected = [selected[int(i * step)] for i in range(max_points)]
    return selected


@dataclass(frozen=True)
class Evaluation:
    """A sampler's request: simulate ``point`` at ``fidelity``.

    ``fidelity`` is the fraction of the study's full horizon in
    ``(0, 1]``; 1.0 is a full-horizon simulation.
    """

    point: DesignPoint
    fidelity: float


@dataclass(frozen=True)
class ObservedPoint:
    """One completed evaluation: the request plus its objectives.

    ``objectives`` is the minimization tuple ``(perf_cost, energy_mj)``,
    or ``None`` when every retry of the underlying simulation failed.
    """

    evaluation: Evaluation
    objectives: Optional[tuple[float, ...]]


class Sampler:
    """Base interface: ``start`` once, then alternate batch/observe."""

    name = "base"

    def start(self, points: Sequence[DesignPoint]) -> None:
        raise NotImplementedError

    def next_batch(self) -> list[Evaluation]:
        """The next work batch; an empty list ends the study."""
        raise NotImplementedError

    def observe(self, observed: Sequence[ObservedPoint]) -> None:
        """Feedback for the batch most recently returned."""


class GridSampler(Sampler):
    """Exhaustive full-fidelity search (the baseline strategy)."""

    name = "grid"

    def __init__(self, max_points: Optional[int] = None):
        self.max_points = max_points
        self._pending: Optional[list[Evaluation]] = None

    def start(self, points: Sequence[DesignPoint]) -> None:
        self._pending = [
            Evaluation(p, 1.0) for p in _stride_subsample(points, self.max_points)
        ]

    def next_batch(self) -> list[Evaluation]:
        batch, self._pending = self._pending or [], []
        return batch


class RandomSampler(Sampler):
    """Seeded uniform subset at full fidelity (without replacement)."""

    name = "random"

    def __init__(self, n: int, seed: int = 0):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.seed = seed
        self._pending: Optional[list[Evaluation]] = None

    def start(self, points: Sequence[DesignPoint]) -> None:
        pool = list(points)
        rng = Random(self.seed)
        rng.shuffle(pool)
        self._pending = [Evaluation(p, 1.0) for p in pool[: self.n]]

    def next_batch(self) -> list[Evaluation]:
        batch, self._pending = self._pending or [], []
        return batch


@dataclass(frozen=True)
class Rung:
    """One successive-halving stage.

    ``fidelity`` is the simulated-horizon fraction; ``keep`` is the
    fraction **of the initial candidate count** evaluated at this rung.
    """

    fidelity: float
    keep: float

    def __post_init__(self) -> None:
        if not 0.0 < self.fidelity <= 1.0:
            raise ValueError(f"fidelity must be in (0, 1], got {self.fidelity}")
        if not 0.0 < self.keep <= 1.0:
            raise ValueError(f"keep must be in (0, 1], got {self.keep}")


#: Default schedule: everything at half horizon, the best third of the
#: short-run Pareto order at the full horizon.  With the default rungs a
#: study performs at most 32% of a grid search's full-horizon work; on
#: the reference scenario this recovers the grid frontier's hypervolume
#: to well within the 5% acceptance band (see
#: ``tests/test_explore_study.py``).
DEFAULT_RUNGS = (Rung(fidelity=0.5, keep=1.0), Rung(fidelity=1.0, keep=0.32))


class AdaptiveSampler(Sampler):
    """Coarse-to-fine successive halving toward the Pareto frontier.

    Rung *k* evaluates the best ``rungs[k].keep`` fraction of the
    initial candidates (ranked by Pareto-front peeling of the previous
    rung's objectives) at ``rungs[k].fidelity``.  Failed evaluations
    rank last and are never promoted.  Rungs must be strictly
    increasing in fidelity and non-increasing in keep fraction.
    """

    name = "adaptive"

    def __init__(
        self,
        rungs: Sequence[Rung] = DEFAULT_RUNGS,
        max_points: Optional[int] = None,
    ):
        rungs = tuple(rungs)
        if not rungs:
            raise ValueError("adaptive sampler needs at least one rung")
        for a, b in zip(rungs, rungs[1:]):
            if b.fidelity <= a.fidelity:
                raise ValueError("rung fidelities must strictly increase")
            if b.keep > a.keep:
                raise ValueError("rung keep fractions must not increase")
        self.rungs = rungs
        self.max_points = max_points
        self._initial: list[DesignPoint] = []
        self._candidates: list[DesignPoint] = []
        self._rung_index = 0
        self._awaiting: Optional[list[Evaluation]] = None

    def start(self, points: Sequence[DesignPoint]) -> None:
        selected = _stride_subsample(points, self.max_points)
        self._initial = list(selected)
        self._candidates = list(selected)
        self._rung_index = 0
        self._awaiting = None

    def next_batch(self) -> list[Evaluation]:
        if self._rung_index >= len(self.rungs) or not self._candidates:
            return []
        rung = self.rungs[self._rung_index]
        quota = max(1, int(len(self._initial) * rung.keep))
        selected = self._candidates[:quota]
        self._awaiting = [Evaluation(p, rung.fidelity) for p in selected]
        return list(self._awaiting)

    def observe(self, observed: Sequence[ObservedPoint]) -> None:
        if self._awaiting is None:
            return
        scored = [o for o in observed if o.objectives is not None]
        order = pareto_rank_order([o.objectives for o in scored])
        self._candidates = [scored[i].evaluation.point for i in order]
        self._rung_index += 1
        self._awaiting = None

    def full_horizon_budget(self, n_candidates: int) -> int:
        """Upper bound on fidelity-1.0 simulations for ``n_candidates``."""
        budget = 0
        for rung in self.rungs:
            if rung.fidelity >= 1.0:
                budget += max(1, int(n_candidates * rung.keep))
        return budget


def make_sampler(
    name: str,
    max_points: Optional[int] = None,
    seed: int = 0,
    rungs: Sequence[Rung] = DEFAULT_RUNGS,
) -> Sampler:
    """CLI-facing factory: ``grid`` / ``random`` / ``adaptive``."""
    if name == "grid":
        return GridSampler(max_points=max_points)
    if name == "random":
        return RandomSampler(n=max_points or 64, seed=seed)
    if name == "adaptive":
        return AdaptiveSampler(rungs=rungs, max_points=max_points)
    raise KeyError(f"unknown sampler {name!r}; valid: grid, random, adaptive")
