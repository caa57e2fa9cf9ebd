"""Regression diffing: the same logical specs across two code versions.

:meth:`RunSpec.key` hashes the spec manifest *without* the package
version — the version only selects the cache directory
(``<root>/<version>/<key>``).  So when two versions' subtrees share a
spec key, they ran the *same logical experiment* under different code,
and diffing their entries answers "what did this PR change?" straight
from the cache:

- scalar metric deltas (energy, power, duration, headline metric) per
  common spec,
- aggregate big-cluster residency deltas for specs with a
  ``trace_summary`` on both sides (the no-densify kernels' output,
  computed at store time; an entry without one, traceless or written
  before 1.3.0, contributes its scalars only),
- specs present on only one side (new/removed coverage).

``biglittle lake diff 1.1.0 1.2.0`` is the CLI face of this module.
"""

from __future__ import annotations

from math import fsum
from typing import Any, Optional

from repro.lake.catalog import Catalog, CatalogEntry
from repro.obs.metrics import global_metrics

__all__ = ["diff_versions", "render_diff"]

#: Scalar metrics compared per common spec.
DIFF_METRICS = ("metric", "duration_s", "avg_power_mw", "energy_mj", "latency_s")

#: Relative change below which a metric delta is noise, not a finding.
DEFAULT_REL_TOLERANCE = 1e-9


def _metric_deltas(
    a: CatalogEntry, b: CatalogEntry, rel_tolerance: float
) -> dict[str, dict[str, float]]:
    deltas: dict[str, dict[str, float]] = {}
    for name in DIFF_METRICS:
        va, vb = a.metrics.get(name), b.metrics.get(name)
        if not isinstance(va, (int, float)) or not isinstance(vb, (int, float)):
            continue
        delta = float(vb) - float(va)
        scale = max(abs(float(va)), abs(float(vb)))
        if scale > 0 and abs(delta) / scale <= rel_tolerance:
            continue
        if delta == 0.0:
            continue
        deltas[name] = {
            "a": float(va),
            "b": float(vb),
            "delta": delta,
            "rel": delta / scale if scale > 0 else 0.0,
        }
    return deltas


def _big_residency(entry: CatalogEntry) -> Optional[dict[int, float]]:
    if entry.trace_summary is None:
        return None
    counts, n_active = entry.trace_summary["residency_big"]
    if n_active == 0:
        return {}
    return {int(khz): 100.0 * ticks / n_active for khz, ticks in counts.items()}


def _residency_delta(
    a: dict[int, float], b: dict[int, float]
) -> dict[str, float]:
    """Per-OPP percentage-point deltas, plus total absolute shift."""
    out: dict[str, float] = {}
    for khz in sorted(set(a) | set(b)):
        delta = b.get(khz, 0.0) - a.get(khz, 0.0)
        if delta != 0.0:
            out[str(khz)] = delta
    out["total_abs_pp"] = fsum(abs(v) for k, v in out.items())
    return out


def diff_versions(
    catalog: Catalog,
    version_a: str,
    version_b: str,
    rel_tolerance: float = DEFAULT_REL_TOLERANCE,
) -> dict[str, Any]:
    """Structured diff of two versions' cache entries (B relative to A)."""
    global_metrics().counter("lake.diffs").inc()
    entries = catalog.load()
    side_a = {e.spec_key: e for e in entries if e.version == version_a}
    side_b = {e.spec_key: e for e in entries if e.version == version_b}
    common = sorted(set(side_a) & set(side_b))

    changed: list[dict[str, Any]] = []
    unchanged = 0
    for spec_key in common:
        a, b = side_a[spec_key], side_b[spec_key]
        record: dict[str, Any] = {
            "spec_key": spec_key,
            "workload": b.workload,
            "scheduler": b.scheduler,
            "metrics": _metric_deltas(a, b, rel_tolerance),
        }
        res_a, res_b = _big_residency(a), _big_residency(b)
        if res_a is not None and res_b is not None:
            delta = _residency_delta(res_a, res_b)
            if delta["total_abs_pp"] > 0.0:
                record["big_residency_delta"] = delta
        if record["metrics"] or "big_residency_delta" in record:
            changed.append(record)
        else:
            unchanged += 1

    return {
        "version_a": version_a,
        "version_b": version_b,
        "common_specs": len(common),
        "unchanged": unchanged,
        "changed": changed,
        "only_in_a": [
            {"spec_key": k, "workload": side_a[k].workload}
            for k in sorted(set(side_a) - set(side_b))
        ],
        "only_in_b": [
            {"spec_key": k, "workload": side_b[k].workload}
            for k in sorted(set(side_b) - set(side_a))
        ],
    }


def render_diff(payload: dict[str, Any]) -> str:
    """Human-readable form of a :func:`diff_versions` payload."""
    lines = [
        f"lake diff: {payload['version_a']} -> {payload['version_b']}",
        f"  common specs: {payload['common_specs']} "
        f"({payload['unchanged']} unchanged, {len(payload['changed'])} changed)",
        f"  only in {payload['version_a']}: {len(payload['only_in_a'])}, "
        f"only in {payload['version_b']}: {len(payload['only_in_b'])}",
    ]
    for record in payload["changed"]:
        lines.append(
            f"  {record['workload']} [{record['scheduler']}] {record['spec_key'][:12]}"
        )
        for name, d in record["metrics"].items():
            lines.append(
                f"    {name}: {d['a']:.6g} -> {d['b']:.6g} "
                f"({d['delta']:+.6g}, {100.0 * d['rel']:+.2f}%)"
            )
        res = record.get("big_residency_delta")
        if res:
            moved = {k: v for k, v in res.items() if k != "total_abs_pp"}
            shift = " ".join(f"{k}kHz:{v:+.2f}pp" for k, v in moved.items())
            lines.append(
                f"    big residency shift: {shift} "
                f"(total {res['total_abs_pp']:.2f}pp)"
            )
    if not payload["changed"]:
        lines.append("  no metric or residency changes detected")
    return "\n".join(lines)
