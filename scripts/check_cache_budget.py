#!/usr/bin/env python
"""CI gate: cached trace entries must stay within their size budget.

Runs a small smoke sweep (two short app runs, one idle-heavy synthetic
run) into a throwaway cache, then asserts that every ``trace.rle`` entry
is under budget.  A regression here means the columnar format stopped
compressing — e.g. a new trace column defeats the piecewise-constant
assumption, or someone switched the npz writer off compression — which
would quietly balloon every user's ``~/.cache/repro-runner``.

Exit status: 0 when all entries fit, 1 otherwise (CI runs this
blocking).

Usage::

    PYTHONPATH=src python scripts/check_cache_budget.py
"""

from __future__ import annotations

import os
import sys
import tempfile

from repro.runner import BatchRunner, ResultCache, RunSpec

#: Per-entry budget.  The smoke traces are ~216 KB dense (4 s app run)
#: and ~3.2 MB dense (60 s idle-heavy); encoded entries that approach
#: this limit have lost an order of magnitude of headroom.
RLE_BUDGET_BYTES = 96 * 1024

SMOKE_SECONDS = 4.0
IDLE_SECONDS = 60.0


def smoke_specs() -> list[RunSpec]:
    return [
        RunSpec("video-player", seed=3, max_seconds=SMOKE_SECONDS),
        RunSpec("bbench", seed=3, max_seconds=SMOKE_SECONDS),
        RunSpec("idle-heavy", kind="repro.runner.benchkinds:run_idle_heavy",
                seed=3, max_seconds=IDLE_SECONDS),
    ]


def main() -> int:
    failures = []
    checked = 0
    filename, budget = ResultCache.RLE_TRACE_FILE, RLE_BUDGET_BYTES
    with tempfile.TemporaryDirectory(prefix="cache-budget-") as root:
        cache = ResultCache(root=root)
        specs = smoke_specs()
        BatchRunner(workers=1, cache=cache).run(specs).raise_on_failure()
        for spec in specs:
            path = os.path.join(cache.entry_dir(spec), filename)
            if not os.path.isfile(path):
                failures.append(f"{spec.label()}: missing {filename}")
                continue
            size = os.path.getsize(path)
            checked += 1
            status = "OK" if size <= budget else "OVER BUDGET"
            print(f"{spec.label():<28} {filename:<10} "
                  f"{size:>9,} / {budget:>9,} bytes  {status}")
            if size > budget:
                failures.append(
                    f"{spec.label()}: {filename} is "
                    f"{size:,} bytes (budget {budget:,})"
                )
    if failures:
        print(f"\nFAIL: {len(failures)} cache entries over budget or missing:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: {checked} cached trace entries within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
