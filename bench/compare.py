"""Compare two sets of benchmark runs.

    python bench/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file holds run records written by ``bench/run.py --out``.  For each
workload and metric it prints the median and quartiles of set A and set
B, the change of the medians, the metric's bound from ``BENCHMARK.json``
and a verdict:

- *ok*: B's median is not worse than A's by more than the bound;
- *worse*: it is;
- *unresolved*: the spread (quartile distance over median) of either set
  is wider than the bound, and the two sets overlap.

The exit code is 1 if any metric is worse or the share of failed
operations grew, 2 if the runs cannot be compared (different seeds,
worker counts, run lengths, tracing or benchmark versions), else 0.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Incomparable(ValueError):
    pass


def load_runs(paths: list[str]) -> list[dict]:
    runs: list[dict] = []
    for path in paths:
        with open(path) as fh:
            runs.extend(json.load(fh))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    worse_by = change if better == "lower" else -change
    separated = max(a) < min(b) or max(b) < min(a)
    if max(spread(a), spread(b)) > bound and not separated:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def check_comparable(a: list[dict], b: list[dict]) -> None:
    for key in ("bench_version", "workers", "seconds", "trace"):
        for workload in {run["workload"] for run in a + b}:
            values = {run[key] for run in a + b if run["workload"] == workload}
            if len(values) > 1:
                raise Incomparable(f"{workload}: runs differ in {key}: {sorted(values)}")
    for workload in {run["workload"] for run in a + b}:
        seeds_a = sorted(run["seed"] for run in a if run["workload"] == workload)
        seeds_b = sorted(run["seed"] for run in b if run["workload"] == workload)
        if set(seeds_a) != set(seeds_b):
            raise Incomparable(f"{workload}: seeds differ: {seeds_a} vs {seeds_b}")


def cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(a: list[dict], b: list[dict], spec: dict) -> tuple[list[str], bool]:
    """Return the report lines and whether anything got worse."""
    check_comparable(a, b)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    by_workload: dict[str, tuple[list, list]] = defaultdict(lambda: ([], []))
    for side, runs in ((0, a), (1, b)):
        for run in runs:
            by_workload[run["workload"]][side].append(run)
    lines: list[str] = []
    bad = False
    for workload, (runs_a, runs_b) in sorted(by_workload.items()):
        if not runs_a or not runs_b:
            lines.append(f"== {workload}: only in {'B' if runs_b else 'A'}, not compared")
            continue
        lines.append(f"== {workload} ({len(runs_a)} vs {len(runs_b)} runs)")
        lines.append(f"  {'metric':34s} {'A median [q1, q3]':>32s}  "
                     f"{'B median [q1, q3]':>32s}  {'change':>7s}  bound  verdict")
        for name in runs_a[0]["metrics"]:
            values_a = [run["metrics"][name]["value"] for run in runs_a]
            values_b = [run["metrics"][name]["value"] for run in runs_b]
            q_a, q_b = quartiles(values_a), quartiles(values_b)
            change = (q_b[1] - q_a[1]) / abs(q_a[1]) if q_a[1] else 0.0
            metric = declared.get(name, {})
            bound = metric.get("bound")
            result = "-" if bound is None else verdict(
                values_a, values_b, metric["better"], bound
            )
            bad |= result == "worse"
            bound_text = "-" if bound is None else f"{bound:.0%}"
            lines.append(
                f"  {name:34s} {cell(q_a):>32s}  {cell(q_b):>32s}"
                f"  {change:+7.1%}  {bound_text:>5s}  {result}"
            )
        share_a, share_b = failed_share(runs_a), failed_share(runs_b)
        if share_b > share_a:
            bad = True
            lines.append(f"  failed share grew: {share_a:.4%} -> {share_b:.4%}")
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv or argv.index("--") == 0 or argv[-1] == "--":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    split = argv.index("--")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        lines, bad = compare(load_runs(argv[:split]), load_runs(argv[split + 1:]), spec)
    except Incomparable as exc:
        print(f"compare: refusing: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
