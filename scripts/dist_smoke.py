#!/usr/bin/env python
"""CI smoke test for distributed sweep execution.

Spawns two real ``biglittle worker`` subprocesses on localhost TCP, runs
a small mixed-policy sweep through the coordinator, and asserts the
results are **identical** to the local process-pool backend — scalars
exactly equal, RLE traces bit-equal after materialization.  The
distributed batch runs through a runner whose cache is the lake root,
and the workers keep no cache, so that runner's catalog must index each
spec exactly once: the catalog log, a tree scan and the spec keys agree,
with one ``store`` line per spec.

Usage::

    PYTHONPATH=src python scripts/dist_smoke.py --out-catalog dist-catalog.jsonl

Exit status 0 on success; any mismatch or catalog disagreement fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N_WORKERS = 2
SIM_SECONDS = 1.0


def _specs():
    from repro.runner import RunSpec

    # Mixed trace policies: "rle" exercises the binary blob path and the
    # runner's trace storage; "none" the scalars-only fast path.
    specs = [
        RunSpec("pdf-reader", seed=seed, max_seconds=SIM_SECONDS,
                trace_policy="rle")
        for seed in (1, 2, 3, 4)
    ]
    specs += [
        RunSpec("video-player", seed=seed, max_seconds=SIM_SECONDS,
                trace_policy="none", reductions=("power_summary",))
        for seed in (1, 2)
    ]
    return specs


def _spawn_worker(endpoint: str, idx: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker",
         "--connect", endpoint, "--id", f"smoke-w{idx}"],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-catalog", metavar="PATH", default=None,
                        help="copy the lake catalog here (CI artifact)")
    args = parser.parse_args(argv)

    from repro.dist import Coordinator, DistExecutor
    from repro.lake.catalog import Catalog
    from repro.runner import BatchRunner, ResultCache

    specs = _specs()

    print(f"dist-smoke: {len(specs)} specs x {SIM_SECONDS:.0f}s sim, "
          f"{N_WORKERS} localhost TCP workers")

    t0 = time.monotonic()
    pool = BatchRunner(workers=N_WORKERS, executor="pool").run(specs)
    pool.raise_on_failure()
    print(f"  local pool backend: {time.monotonic() - t0:.2f}s")

    scratch = tempfile.mkdtemp(prefix="dist-smoke-")
    lake_root = os.path.join(scratch, "lake")
    coord = Coordinator().start()
    procs = [_spawn_worker(coord.endpoint, i) for i in range(N_WORKERS)]
    try:
        connected = coord.wait_for_workers(N_WORKERS, timeout_s=60)
        if connected < N_WORKERS:
            print(f"FAIL: only {connected}/{N_WORKERS} workers connected")
            return 1
        t0 = time.monotonic()
        dist = BatchRunner(
            cache=ResultCache(root=lake_root), executor=DistExecutor(coord)
        ).run(specs)
        dist.raise_on_failure()
        print(f"  distributed backend: {time.monotonic() - t0:.2f}s "
              f"({dist.transport_bytes} transport bytes)")
        stats = coord.stats()
    finally:
        coord.shutdown()
        for proc in procs:
            try:
                out, _ = proc.communicate(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
            if proc.returncode != 0:
                print(f"worker exited {proc.returncode}:\n{out}")

    failures = 0
    for spec, local, remote in zip(specs, pool.results, dist.results):
        label = spec.label()
        if remote.scalars() != local.scalars():
            print(f"FAIL: scalars differ for {label}")
            failures += 1
            continue
        if spec.trace_policy == "rle":
            a, b = local.trace.materialize(), remote.trace.materialize()
            if not (np.array_equal(a.busy, b.busy)
                    and np.array_equal(a.power_mw, b.power_mw)
                    and np.array_equal(a.wakeups, b.wakeups)):
                print(f"FAIL: RLE trace differs for {label}")
                failures += 1
                continue
        print(f"  identical: {label} ({spec.trace_policy})")

    catalog = Catalog(root=lake_root)
    expected = {s.key() for s in specs}
    logged = {e.spec_key for e in catalog.load()}
    scanned = {e.spec_key for e in catalog.scan()}
    print(f"  catalog: {len(logged)} logged, {len(scanned)} scanned, "
          f"{len(expected)} specs")
    if not logged == scanned == expected:
        print("FAIL: catalog log, tree scan and spec keys disagree")
        failures += 1
    ops = []
    if catalog.exists():
        with open(catalog.path) as fh:
            ops = [json.loads(line)["op"] for line in fh if line.strip()]
    if ops != ["store"] * len(specs):
        print(f"FAIL: expected one store line per spec, got {ops}")
        failures += 1
    if args.out_catalog:
        if catalog.exists():
            shutil.copyfile(catalog.path, args.out_catalog)
            print(f"  catalog artifact -> {args.out_catalog}")
        else:
            print("FAIL: no catalog to export")
            failures += 1

    shutil.rmtree(scratch, ignore_errors=True)
    if failures:
        print(f"\nFAIL: {failures} dist-smoke check(s) failed")
        return 1
    print(f"\nOK: distributed results identical to local pool backend "
          f"({len(specs)} specs, {stats.get('dist.jobs_executed', 0)} jobs, "
          f"{stats.get('dist.bytes_in', 0) + stats.get('dist.bytes_out', 0)} "
          f"wire bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
