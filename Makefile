# Convenience targets for the biglittle-repro repository.

.PHONY: install test reference-loop claims bench bench-trace dist-smoke artifacts calibrate examples clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/ -q

# The engine's per-tick tests on the reference tick loop alone (fast
# paths pinned off); CI runs this target.
reference-loop:
	REPRO_ENGINE_FASTPATH=0 PYTHONPATH=src python -m pytest -q \
		tests/test_sim_engine.py tests/test_sched_hmp.py \
		tests/test_memory_contention.py tests/test_sim_task.py \
		tests/test_taskstats.py

# The paper's findings as executable checks (about two minutes).
claims:
	PYTHONPATH=src python -m pytest -m claims

# The repository benchmark (bench/README.md): four workloads, end to
# end, with their outputs checked.  bench-trace adds the per-layer
# metrics of one short traced run (spans in bench-trace.json).
bench:
	python bench/run.py

bench-trace:
	python bench/run.py --trace 1 --seconds 1

# Distributed execution smoke: 2 localhost TCP workers, results must be
# identical to the local process-pool backend, catalog exported.
dist-smoke:
	PYTHONPATH=src python scripts/dist_smoke.py --out-catalog dist-catalog.jsonl

# Regenerate every paper table/figure into results/.
artifacts:
	PYTHONPATH=src python scripts/collect_results.py

# Compare the 12 app models against the paper's Table III.
calibrate:
	PYTHONPATH=src python scripts/calibrate_table3.py

examples:
	PYTHONPATH=src python examples/quickstart.py bbench
	PYTHONPATH=src python examples/core_config_explorer.py video-player
	PYTHONPATH=src python examples/scheduler_tuning.py
	PYTHONPATH=src python examples/custom_app.py
	PYTHONPATH=src python examples/trace_replay_profiling.py
	PYTHONPATH=src python examples/battery_life.py

clean:
	rm -rf build dist *.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
