#!/usr/bin/env python
"""CI gate: a fresh bench run must not regress past the committed baseline.

Replaces the old non-blocking ``bench_engine.py --compare`` artifact
with a **blocking** check of a fresh ``BENCH_engine.json``-shaped run
(CI produces ``BENCH_fresh.json`` via ``--quick``) against the
committed baseline.  Wall-clock throughput moves with runner hardware,
so the gate is built from two kinds of check that stay meaningful on
any machine:

- **Absolute floors** — per-scenario speedup ratios (fastpath vs
  reference loop, both timed on the *same* machine in the *same* run)
  and byte-reduction ratios are hardware-independent.  The floors are
  set well below both the committed full-mode numbers and observed
  quick-mode numbers, so only a genuine fast-path/pipeline breakage
  trips them, not scheduler jitter.
- **Relative tolerance** — when the fresh run and the baseline used the
  same ``--quick`` flag, each scenario's speedup must stay above
  ``REL_TOLERANCE`` x the baseline's.  0.35 is deliberately loose:
  shared CI runners are noisy, and the absolute floors already catch
  total collapses.

Plus exact **determinism checks** that hold everywhere: the folded
sweep must produce zero scalar mismatches, and the lake-query scenario
must have densified zero traces over >= 200 entries and, when the fresh
run reports ``trace_loads``, opened zero trace files (every entry is
stored with its kernel summary, so a query reading traces again is a
regression on any runner).

Exit status: 0 when every check passes, 1 otherwise (CI runs this
blocking).

Usage::

    PYTHONPATH=src python scripts/bench_engine.py --quick --out BENCH_fresh.json
    PYTHONPATH=src python scripts/check_bench_regression.py BENCH_fresh.json \
        --baseline BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Minimum fastpath-vs-reference speedup per engine scenario.  Derived
#: from the committed full-mode baseline (e.g. standby 49.7x, browser
#: 2.5x) and a quick-mode probe (standby 32x, voice-call 2.2x) with wide
#: margins — each floor is ~3-5x below the worst observed value.
SPEEDUP_FLOORS = {
    "standby-1hz": 6.0,
    "voice-call": 1.15,
    "video-player": 1.15,
    "browser": 1.2,
    "spec-compute": 4.0,
    "spec-compute-long": 4.0,
}

#: Floors for the non-engine scenarios (same same-machine-ratio logic).
SWEEP_SPEEDUP_FLOOR = 1.5          # sweep folding vs per-run (4.3-6.7x observed)
DIST_SPEEDUP_FLOOR = 3.0           # 4 TCP workers vs serial per-run (~5-6x observed)
TRANSPORT_BYTES_FLOORS = {"rle": 150.0, "none": 1500.0}   # vs full policy
LAKE_MIN_ENTRIES = 200

#: Fresh speedup must be >= this fraction of the baseline speedup, when
#: both runs used the same --quick flag.
REL_TOLERANCE = 0.35


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check(fresh: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Returns (pass lines, failure lines)."""
    passed: list[str] = []
    failures: list[str] = []

    def ok(line: str) -> None:
        passed.append(line)

    def fail(line: str) -> None:
        failures.append(line)

    fresh_rows = {r["scenario"]: r for r in fresh.get("scenarios", [])}
    base_rows = {r["scenario"]: r for r in baseline.get("scenarios", [])}
    comparable = bool(fresh.get("quick")) == bool(baseline.get("quick"))

    missing = sorted(set(base_rows) - set(fresh_rows))
    if missing:
        fail(f"scenarios missing from fresh run: {', '.join(missing)}")

    for name, row in sorted(fresh_rows.items()):
        speedup = float(row.get("speedup", 0.0))
        floor = SPEEDUP_FLOORS.get(name)
        if floor is not None:
            line = f"{name}: speedup {speedup:.2f}x (floor {floor:.2f}x)"
            ok(line) if speedup >= floor else fail(line)
        base = base_rows.get(name)
        if base is not None and comparable:
            base_speedup = float(base.get("speedup", 0.0))
            rel_floor = REL_TOLERANCE * base_speedup
            line = (f"{name}: speedup {speedup:.2f}x vs baseline "
                    f"{base_speedup:.2f}x (>= {rel_floor:.2f}x)")
            ok(line) if speedup >= rel_floor else fail(line)

    sweep = fresh.get("sweep_lockstep")
    if not isinstance(sweep, dict):
        fail("sweep_lockstep section missing from fresh run")
    else:
        mismatches = int(sweep.get("scalar_mismatches", -1))
        line = f"sweep-lockstep: {mismatches} scalar mismatches (must be 0)"
        ok(line) if mismatches == 0 else fail(line)
        speedup = float(sweep.get("speedup", 0.0))
        line = (f"sweep-lockstep: speedup {speedup:.2f}x "
                f"(floor {SWEEP_SPEEDUP_FLOOR:.2f}x)")
        ok(line) if speedup >= SWEEP_SPEEDUP_FLOOR else fail(line)

    dist = fresh.get("sweep_distributed")
    if not isinstance(dist, dict):
        if "sweep_distributed" in baseline:
            fail("sweep_distributed section missing from fresh run")
    else:
        mismatches = int(dist.get("scalar_mismatches", -1))
        line = (f"sweep-distributed: {mismatches} scalar mismatches vs "
                f"local pool (must be 0)")
        ok(line) if mismatches == 0 else fail(line)
        duplicates = int(dist.get("duplicate_executions", -1))
        line = (f"sweep-distributed: {duplicates} duplicate executions "
                f"on concurrent submission (must be 0)")
        ok(line) if duplicates == 0 else fail(line)
        speedup = float(dist.get("speedup", 0.0))
        line = (f"sweep-distributed: speedup {speedup:.2f}x "
                f"(floor {DIST_SPEEDUP_FLOOR:.2f}x)")
        ok(line) if speedup >= DIST_SPEEDUP_FLOOR else fail(line)

    policies = (fresh.get("batch_transport") or {}).get("policies") or {}
    for policy, floor in sorted(TRANSPORT_BYTES_FLOORS.items()):
        stats = policies.get(policy)
        if not isinstance(stats, dict):
            fail(f"batch-transport policy {policy!r} missing from fresh run")
            continue
        reduction = float(stats.get("bytes_reduction_vs_full", 0.0))
        line = (f"batch-transport[{policy}]: {reduction:.0f}x fewer bytes "
                f"than full (floor {floor:.0f}x)")
        ok(line) if reduction >= floor else fail(line)

    lake = fresh.get("lake_query")
    if isinstance(lake, dict):
        entries = int(lake.get("entries", 0))
        line = f"lake-query: {entries} entries (>= {LAKE_MIN_ENTRIES})"
        ok(line) if entries >= LAKE_MIN_ENTRIES else fail(line)
        materializations = int(lake.get("materializations", -1))
        line = (f"lake-query: {materializations} trace densifications "
                f"(must be 0)")
        ok(line) if materializations == 0 else fail(line)
        if "trace_loads" in lake:
            trace_loads = int(lake["trace_loads"])
            line = f"lake-query: {trace_loads} trace loads (must be 0)"
            ok(line) if trace_loads == 0 else fail(line)
    elif "lake_query" in baseline:
        fail("lake_query section missing from fresh run (present in baseline)")

    return passed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="fresh bench results JSON to validate")
    parser.add_argument("--baseline", default="BENCH_engine.json",
                        help="committed baseline JSON "
                             "(default: BENCH_engine.json)")
    args = parser.parse_args(argv)

    try:
        fresh = _load(args.fresh)
        baseline = _load(args.baseline)
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read bench results: {exc}")
        return 1

    comparable = bool(fresh.get("quick")) == bool(baseline.get("quick"))
    print(f"bench regression gate: {args.fresh} vs {args.baseline} "
          f"(quick={fresh.get('quick')}/{baseline.get('quick')}, "
          f"relative checks {'on' if comparable else 'off — mode mismatch'})")
    passed, failures = check(fresh, baseline)
    for line in passed:
        print(f"  PASS  {line}")
    if failures:
        print(f"\nFAIL: {len(failures)} bench regression(s):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(f"\nOK: {len(passed)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
