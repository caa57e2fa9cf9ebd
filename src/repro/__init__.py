"""Reproduction of Seo et al., "Big or Little: A Study of Mobile Interactive
Applications on an Asymmetric Multi-core Platform" (IISWC 2015).

The package provides:

- :mod:`repro.platform` -- an Exynos-5422-like asymmetric SoC model
  (core types, OPP tables, throughput and power models),
- :mod:`repro.sim` -- a deterministic 1 ms-tick execution engine,
- :mod:`repro.sched` -- the HMP scheduler (Algorithm 1) and the interactive
  DVFS governor (Algorithm 2),
- :mod:`repro.workloads` -- models of the paper's 12 mobile applications,
  a SPEC-like CPU suite, and a utilization microbenchmark,
- :mod:`repro.core` -- the characterization toolkit (TLP, frequency
  residency, efficiency decomposition, performance/power comparison),
- :mod:`repro.experiments` -- one runner per paper table/figure,
- :mod:`repro.runner` -- parallel, cached, fault-tolerant batch
  execution of simulation grids (the path every multi-run experiment
  takes).

Quickstart::

    from repro.core.study import CharacterizationStudy
    study = CharacterizationStudy(seed=7)
    result = study.characterize("bbench")
    print(result.tlp, result.big_active_pct)
"""

# Single source of truth — pyproject.toml reads this attribute
# (tool.setuptools.dynamic), and repro.runner.cache partitions its
# on-disk entries by it.  Bump on any change to simulation semantics.
__version__ = "1.3.0"
