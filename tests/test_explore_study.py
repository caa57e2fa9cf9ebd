"""Acceptance tests for :mod:`repro.explore.study`.

The module-scoped fixtures run the documented reference scenario once
per sampler (single-workload mix, short full horizon) against a shared
on-disk cache, then every test inspects those results:

- a >= 200-point budget-constrained study completes and emits a
  perf/energy frontier artifact;
- re-running the identical study resolves 100% from the result cache;
- the adaptive sampler lands within 5% of the grid-search hypervolume
  while spending at most 35% of the grid's full-horizon simulations;
- a study interrupted after its first batch resumes from the cache:
  the re-run matches an uninterrupted run and hits on exactly the
  simulations the first batch ran.
"""

from __future__ import annotations

import json

import pytest

from repro.explore.samplers import AdaptiveSampler, GridSampler
from repro.explore.space import DesignSpace, reference_space
from repro.explore.study import ExploreStudy, StudyResult, point_objectives
from repro.obs.metrics import global_metrics
from repro.runner import BatchRunner, ResultCache, RunResult

#: Short full horizon keeps the 256-point reference grid affordable in
#: CI while leaving the half-horizon rung (0.6 s) above the engine's
#: warmup transient.
FULL_HORIZON_S = 1.2


def _runner(cache_root: str) -> BatchRunner:
    return BatchRunner(workers=2, cache=ResultCache(root=str(cache_root)))


@pytest.fixture(scope="module")
def cache_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("explore-cache"))


@pytest.fixture(scope="module")
def grid_result(cache_root) -> StudyResult:
    study = ExploreStudy(
        reference_space(workloads=("browser",)),
        GridSampler(),
        runner=_runner(cache_root),
        full_horizon_s=FULL_HORIZON_S,
        seed=0,
    )
    return study.run()


@pytest.fixture(scope="module")
def adaptive_result(cache_root, grid_result) -> StudyResult:
    # Shares the cache with the grid study: full-horizon rungs replay as
    # hits, but full_horizon_simulations() still counts what the sampler
    # *requested* — the budget comparison below is cache-independent.
    study = ExploreStudy(
        reference_space(workloads=("browser",)),
        AdaptiveSampler(),
        runner=_runner(cache_root),
        full_horizon_s=FULL_HORIZON_S,
        seed=0,
    )
    return study.run()


class TestGridStudy:
    def test_completes_at_scale_under_budget(self, grid_result):
        assert len(grid_result.full_evaluations()) >= 200
        assert all(e.objectives is not None for e in grid_result.evaluations)
        # Every evaluated topology honored the area budget.
        budget = grid_result.space.budget
        for e in grid_result.evaluations:
            assert e.point.topology().area_mm2() <= budget.max_area_mm2

    def test_frontier_is_non_empty_and_non_dominated(self, grid_result):
        frontier = grid_result.frontier()
        assert frontier
        from repro.explore.pareto import dominates

        objs = [e.objectives for e in frontier]
        for a in objs:
            assert not any(dominates(b, a) for b in objs)

    def test_artifact_round_trips(self, grid_result, tmp_path):
        path = tmp_path / "frontier.json"
        grid_result.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["study"]["space_key"] == grid_result.space.key()
        assert payload["frontier_size"] == len(grid_result.frontier())
        assert payload["frontier"], "artifact must carry a non-empty frontier"
        for entry in payload["frontier"]:
            assert set(entry) >= {"params", "perf_cost", "energy_mj", "area_mm2"}
        assert payload["hypervolume"] == pytest.approx(grid_result.hypervolume())

    def test_render_mentions_sampler_and_frontier(self, grid_result):
        text = grid_result.render()
        assert "grid sampler" in text
        assert "Pareto frontier" in text

    def test_metrics_registry_tracks_progress(self, grid_result):
        reg = global_metrics()
        assert reg.counter("explore.points").value >= len(grid_result.evaluations)
        assert reg.gauge("explore.frontier_size").value >= 1
        assert reg.gauge("explore.hypervolume").value > 0


class TestCacheResume:
    def test_rerun_resolves_fully_from_cache(self, cache_root, grid_result):
        study = ExploreStudy(
            reference_space(workloads=("browser",)),
            GridSampler(),
            runner=_runner(cache_root),
            full_horizon_s=FULL_HORIZON_S,
            seed=0,
        )
        rerun = study.run()
        assert rerun.cache_misses == 0
        assert rerun.cache_hits == len(grid_result.evaluations)
        assert [e.objectives for e in rerun.evaluations] == [
            e.objectives for e in grid_result.evaluations
        ]

    def test_different_seed_misses(self, cache_root):
        space = DesignSpace({"workloads": (("browser",),)})
        study = ExploreStudy(
            space,
            GridSampler(),
            runner=_runner(cache_root),
            full_horizon_s=0.5,
            seed=99,
        )
        result = study.run()
        assert result.cache_misses == 1


class TestAdaptiveSampler:
    def test_within_5pct_of_grid_hypervolume(self, grid_result, adaptive_result):
        ref = grid_result.ref_point()
        hv_grid = grid_result.hypervolume(ref)
        hv_adaptive = adaptive_result.hypervolume(ref)
        assert hv_grid > 0
        assert hv_adaptive >= 0.95 * hv_grid, (
            f"adaptive hv {hv_adaptive:.4g} < 95% of grid hv {hv_grid:.4g}"
        )

    def test_spends_at_most_35pct_of_full_horizon_sims(
        self, grid_result, adaptive_result
    ):
        grid_sims = grid_result.full_horizon_simulations()
        adaptive_sims = adaptive_result.full_horizon_simulations()
        assert adaptive_sims <= 0.35 * grid_sims, (
            f"{adaptive_sims} full-horizon sims > 35% of grid's {grid_sims}"
        )

    def test_budget_helper_matches_observed_spend(self, adaptive_result):
        sampler = AdaptiveSampler()
        n = 256
        assert adaptive_result.full_horizon_simulations() <= (
            sampler.full_horizon_budget(n)
        )


class _Interrupted(Exception):
    pass


class _StopsAfterFirstBatch(AdaptiveSampler):
    """Adaptive search that dies asking for its second batch."""

    first_batch = None

    def next_batch(self):
        if self.first_batch is not None:
            raise _Interrupted
        self.first_batch = super().next_batch()
        return self.first_batch


class TestInterruptedResume:
    AXES = {
        "little_cores": (2, 4), "big_cores": (0, 2), "workloads": (("browser",),),
    }

    def _study(self, cache_root, sampler):
        return ExploreStudy(
            DesignSpace(self.AXES),
            sampler,
            runner=_runner(cache_root),
            full_horizon_s=0.5,
            seed=3,
        )

    def test_rerun_resumes_from_the_cache(self, tmp_path):
        interrupted = _StopsAfterFirstBatch()
        with pytest.raises(_Interrupted):
            self._study(tmp_path / "resumed", interrupted).run()
        resumed = self._study(tmp_path / "resumed", AdaptiveSampler()).run()
        uninterrupted = self._study(tmp_path / "cold", AdaptiveSampler()).run()

        def evaluations(result):
            return [
                (e.point.key(), e.fidelity, e.objectives) for e in result.evaluations
            ]

        assert evaluations(resumed) == evaluations(uninterrupted)
        first_batch_specs = sum(
            len(e.spec_keys)
            for e in resumed.evaluations[:len(interrupted.first_batch)]
        )
        assert first_batch_specs > 0
        assert resumed.cache_hits == first_batch_specs
        assert resumed.cache_misses == uninterrupted.cache_misses - first_batch_specs


class TestPointObjectives:
    @staticmethod
    def _result(metric, **kw):
        base = dict(
            spec_key="k", workload="w", metric=metric, duration_s=1.0,
            avg_power_mw=100.0, energy_mj=50.0,
        )
        base.update(kw)
        return RunResult(**base)

    def test_latency_and_fps_fold(self):
        results = [
            self._result("latency", latency_s=0.4),
            self._result("fps", avg_fps=50.0, energy_mj=30.0),
        ]
        perf, energy = point_objectives(results)
        assert perf == pytest.approx(0.4 + 1.0 / 50.0)
        assert energy == pytest.approx(80.0)

    def test_degenerate_fps_is_floored(self):
        perf, _ = point_objectives([self._result("fps", avg_fps=0.0)])
        assert perf == pytest.approx(10.0)  # 1 / _MIN_FPS
