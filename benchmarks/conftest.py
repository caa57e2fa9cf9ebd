"""Shared fixtures for the paper-artifact benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
prints the rendered artifact, so running

    pytest benchmarks/ --benchmark-only -s

reproduces the paper's entire evaluation section.  Simulations are
deterministic, so a single round per benchmark is meaningful; the
benchmark timer reports the cost of regenerating each artifact.
"""

import pytest

from repro.runner import BatchRunner, ResultCache

SEED = 7


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    """One shared cached runner: Tables III-V and Figures 9-10 reuse its runs."""
    cache = ResultCache(root=str(tmp_path_factory.mktemp("study-cache")))
    return BatchRunner(workers=1, cache=cache)


def run_artifact(benchmark, fn, *args, **kwargs):
    """Run an artifact generator once under the benchmark timer."""
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    print()
    print(result.render())
    return result
