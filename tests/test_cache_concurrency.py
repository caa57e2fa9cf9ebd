"""Concurrency regression tests for the shared result-cache store.

Several runners, in as many processes, may point at one cache root, so
``ResultCache.store`` must tolerate concurrent writers racing on the
same entry directory, and the catalog log must never interleave bytes
mid-line.  These tests hammer one cache root from several processes and
then assert every entry loads and every catalog line parses.
"""

import json
import multiprocessing as mp
import os

from repro.lake.catalog import Catalog
from repro.runner.cache import ResultCache
from repro.runner.spec import RunResult, RunSpec

N_PROCS = 4
N_SPECS = 6
N_ITERS = 15


def _spec(i: int) -> RunSpec:
    return RunSpec(
        "video-player", chip="exynos5422", core_config="L4+B4",
        seed=100 + i, max_seconds=1.0,
    )


def _result(spec: RunSpec) -> RunResult:
    return RunResult(
        spec_key=spec.key(), workload=spec.workload, metric="fps",
        duration_s=0.01, avg_power_mw=100.0 + spec.seed, energy_mj=1.0,
        avg_fps=60.0,
    )


def _hammer(root: str, barrier, out_q) -> None:
    """Store the same spec set over and over against a shared root."""
    cache = ResultCache(root=root)
    barrier.wait()  # line every process up before the first store
    for _ in range(N_ITERS):
        for i in range(N_SPECS):
            spec = _spec(i)
            cache.store(spec, _result(spec))
    out_q.put((cache.stats.entries_written, cache.stats.store_races))


def test_concurrent_store_same_entries(tmp_path):
    root = str(tmp_path / "cache")
    ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
    barrier = ctx.Barrier(N_PROCS)
    out_q = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer, args=(root, barrier, out_q))
        for _ in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0, "a hammer process crashed"

    tallies = [out_q.get(timeout=10) for _ in procs]
    written = sum(w for w, _ in tallies)
    races = sum(r for _, r in tallies)
    # Every store either published an entry or lost a benign race.
    assert written + races == N_PROCS * N_ITERS * N_SPECS

    # Every entry survived the stampede, byte-complete.
    cache = ResultCache(root=root)
    for i in range(N_SPECS):
        spec = _spec(i)
        result = cache.load(spec)
        assert result is not None, f"spec {i} lost to a write race"
        assert result.avg_power_mw == 100.0 + spec.seed
    assert cache.stats.hits == N_SPECS

    # No orphaned temp dirs left behind by losing writers.
    leftovers = [
        name
        for _, dirnames, _ in os.walk(root)
        for name in dirnames
        if name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_concurrent_catalog_lines_never_torn(tmp_path):
    """Every catalog line written under contention parses as JSON."""
    root = str(tmp_path / "cache")
    ctx = mp.get_context("fork") if hasattr(os, "fork") else mp.get_context()
    barrier = ctx.Barrier(N_PROCS)
    out_q = ctx.Queue()
    procs = [
        ctx.Process(target=_hammer, args=(root, barrier, out_q))
        for _ in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0

    catalog = Catalog(root=root)
    with open(catalog.path) as fh:
        lines = [line for line in fh.read().splitlines() if line]
    assert lines, "catalog never got written"
    for line in lines:
        record = json.loads(line)  # raises on a torn write
        assert "schema" in record

    # The folded view resolves to exactly the hammered spec set.
    entries = catalog.load()
    assert {e.spec_key for e in entries} == {_spec(i).key() for i in range(N_SPECS)}
