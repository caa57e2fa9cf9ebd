"""Cache entries in the dense layout of version 1.2.1 and earlier.

Those versions stored a default-policy (then ``"full"``) result's trace
as a dense ``trace.npz`` and left the policy out of the spec manifest.
The cache no longer writes such entries, but the lake still indexes
them, so the tests write them by hand.
"""

from __future__ import annotations

import json
import os

from repro.lake import Catalog
from repro.lake.kernels import trace_summary
from repro.runner import RunSpec
from repro.sim.trace import Trace
from repro.sim.traceio import RLETrace, save_trace


def write_dense_entry(
    root: str,
    version: str,
    spec: RunSpec,
    scalars: dict,
    trace: Trace,
    summary: bool = True,
) -> str:
    """Write one dense entry under ``root`` and index it; returns its dir.

    ``spec`` must use the default trace policy, so its manifest has no
    policy, as a dense entry's did.  ``summary=False`` leaves out the
    ``trace_summary``, as entries written before summaries existed did.
    """
    assert "trace_policy" not in spec.manifest()
    entry = os.path.join(root, version, spec.key())
    os.makedirs(entry)
    payload = {"cache_version": version, "spec": spec.manifest(), "result": scalars}
    if summary:
        payload["trace_summary"] = trace_summary(RLETrace.from_trace(trace))
    with open(os.path.join(entry, "result.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    save_trace(trace, os.path.join(entry, "trace.npz"))
    Catalog(root=root).append_store(version, spec.key(), payload, entry)
    return entry
