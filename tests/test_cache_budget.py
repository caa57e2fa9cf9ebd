"""Cached trace entries stay within their size budget.

A small smoke sweep (two short app runs, one idle-heavy synthetic run)
goes into a throwaway cache, and every ``trace.rle`` entry must exist
and fit the budget.  A failure here means the columnar format stopped
compressing — e.g. a new trace column defeats the piecewise-constant
assumption, or the npz writer lost its compression — which would
quietly balloon every user's ``~/.cache/repro-runner``.
"""

import os

from repro.runner import BatchRunner, ResultCache, RunSpec

#: Per-entry budget.  The smoke traces are ~216 KB dense (4 s app run)
#: and ~3.2 MB dense (60 s idle-heavy); encoded entries that approach
#: this limit have lost an order of magnitude of headroom.
RLE_BUDGET_BYTES = 96 * 1024

SMOKE_SECONDS = 4.0
IDLE_SECONDS = 60.0


SMOKE_SPECS = [
    RunSpec("video-player", seed=3, max_seconds=SMOKE_SECONDS),
    RunSpec("bbench", seed=3, max_seconds=SMOKE_SECONDS),
    RunSpec("idle-heavy", kind="repro.runner.benchkinds:run_idle_heavy",
            seed=3, max_seconds=IDLE_SECONDS),
]


def test_cached_rle_traces_within_budget(tmp_path):
    cache = ResultCache(root=str(tmp_path))
    BatchRunner(workers=1, cache=cache).run(SMOKE_SPECS).raise_on_failure()
    sizes = {}
    for spec in SMOKE_SPECS:
        path = os.path.join(cache.entry_dir(spec), ResultCache.RLE_TRACE_FILE)
        assert os.path.isfile(path), f"{spec.label()}: missing {path}"
        sizes[spec.label()] = os.path.getsize(path)
    over = {label: size for label, size in sizes.items() if size > RLE_BUDGET_BYTES}
    assert not over, f"over the {RLE_BUDGET_BYTES:,} B budget: {over}"
