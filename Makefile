# Convenience targets for the biglittle-repro repository.

.PHONY: install test bench check-cache-budget dist-smoke artifacts calibrate examples clean

install:
	pip install -e .

test:
	PYTHONPATH=src python -m pytest tests/ -q

bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

# Blocking CI gate: cached trace.rle entries stay in budget.
check-cache-budget:
	PYTHONPATH=src python scripts/check_cache_budget.py

# Distributed execution smoke: 2 localhost TCP workers, results must be
# identical to the local process-pool backend, merged catalog exported.
dist-smoke:
	PYTHONPATH=src python scripts/dist_smoke.py --out-catalog merged-catalog.jsonl

# Regenerate every paper table/figure into results/.
artifacts:
	python scripts/collect_results.py

# Compare the 12 app models against the paper's Table III.
calibrate:
	python scripts/calibrate_table3.py

examples:
	python examples/quickstart.py bbench
	python examples/core_config_explorer.py video-player
	python examples/scheduler_tuning.py
	python examples/custom_app.py
	python examples/trace_replay_profiling.py
	python examples/battery_life.py

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
