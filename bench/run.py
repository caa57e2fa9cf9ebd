"""Run the repository benchmark.

    python bench/run.py [--workload W] [--seed 7] [--seconds 20] [--out runs.json]
    python bench/run.py --trace [--workload W]

Each selected workload runs in a subprocess of its own, so set-up time,
peak memory and the program's global counters belong to that workload
alone.  Set-up (interpreter start, imports, input generation) is timed
from spawn to the child's ready line, ``SETUP_SAMPLES`` times per run,
and reported as the median.  The child then repeats the workload's two
passes for ``--seconds`` and reports their medians, all times at the
reference speed of ``bench/measure.py``.  With ``--trace`` it instead
runs the passes under ``bench/trace.py`` and reports per-layer metrics
in host seconds.  The metric names and units are those of
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With several
workloads the metric names are prefixed with ``<workload>.``.  Temporary
files live under ``.bench-tmp/`` in the repository and are removed at
exit; ``--trace`` also writes the spans to ``bench-trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench.measure import at_reference_speed  # noqa: E402

#: Bumped whenever a change to the benchmark makes old runs incomparable.
BENCH_VERSION = 1
SETUP_SAMPLES = 3
#: A workload subprocess that runs longer than this is killed.
DEADLINE_S = 170.0
READY = "bench-ready"
TMP_ROOT = os.path.join(ROOT, ".bench-tmp")
EXPECTED_DIR = os.path.join(ROOT, "bench", "expected")
TRACE_FILE = "bench-trace.json"


class BenchError(RuntimeError):
    """A workload subprocess failed or broke the output protocol."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def expected_path(seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"seed-{seed}.json")


def load_expected(seed: int) -> dict:
    try:
        with open(expected_path(seed)) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


# -- workload subprocess ------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    from bench import measure

    os.makedirs(TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT)
    try:
        with measure.Speedometer() as speed:
            from bench.workloads import WORKLOADS, Ops

            ops = Ops()
            workload = WORKLOADS[args.workload](args.seed, workdir, ops)
        print(READY, speed.ref_seconds(), flush=True)
        if args.role == "setup":
            return 0
        expected = None if args.write_expected else (
            load_expected(args.seed).get(args.workload)
        )
        if args.trace:
            reps, outputs, metrics = traced_run(workload, args.seconds, expected)
        else:
            reps, outputs = measure.run_reps(workload, args.seconds, expected)
            metrics = {
                "pass1_s": reps.seconds(1),
                "pass2_s": reps.seconds(2),
                "peak_rss_mb": measure.peak_rss_mb(),
            }
        workload.oracle(outputs)
        print(json.dumps({
            "workers": workload.workers,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "mismatches": ops.mismatches,
            "reps": reps.n,
            "raw": vars(reps),
            "outputs": outputs,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass


def traced_run(workload, seconds: float, expected):
    """One pooled repetition for the transport counters, then traced inline ones."""
    from bench import measure
    from bench.trace import Tracer, counter_values
    from bench.workloads import POOL_WORKERS

    names = ("runner.transport.results", "runner.transport.bytes")
    before = counter_values(names)
    workload.workers = POOL_WORKERS
    measure.run_reps(workload, 0.0, expected)
    after = counter_values(names)
    workload.workers = 1
    tracer = Tracer()
    with tracer.installed():
        reps, outputs = measure.run_reps(workload, seconds, expected, tracer=tracer)
    metrics = tracer.layer_metrics(reps.n)
    metrics.update({name: after[name] - before[name] for name in names})
    tracer.write(TRACE_FILE, workload.name)
    return reps, outputs, metrics


# -- parent -------------------------------------------------------------------


def run_child(cmd: list[str], deadline: float) -> tuple[tuple[float, float], list[str]]:
    """Run one workload subprocess.

    Returns the wall seconds from spawn to its ready line with the kernel
    time it sampled meanwhile, and the stdout lines after the ready line.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    ready = None
    lines: list[str] = []
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
                raise BenchError(f"no result within {DEADLINE_S:.0f}s")
            line = proc.stdout.readline()
            if not line:
                break
            if ready is None and line.startswith(READY):
                ready = time.perf_counter() - t0, float(line.split()[1])
            else:
                lines.append(line)
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (BenchError, subprocess.TimeoutExpired):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"workload process exited with code {code}")
    return ready, lines


def run_workload(name: str, args: argparse.Namespace, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.write_expected:
        cmd.append("--write-expected")
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _ = run_child(cmd + ["--role", "setup"], deadline)
            setups.append(ready)
    ready, lines = run_child(cmd + ["--role", "measure"], deadline)
    setups.append(ready)
    try:
        child = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"unreadable workload result: {exc}") from exc
    values = dict(child["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(
            at_reference_speed(wall, ref) for wall, ref in setups
        )
        child["raw"]["setup_wall_s"], child["raw"]["setup_ref_s"] = map(list, zip(*setups))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    return {
        "bench_version": BENCH_VERSION,
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": child["workers"],
        "reps": child["reps"],
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "mismatches": child["mismatches"],
        "outputs": child["outputs"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
        "raw": child["raw"],
    }


def print_run(run: dict) -> None:
    print(f"== {run['workload']} (seed {run['seed']}, {run['reps']} reps, "
          f"{run['workers']} workers, {run['failed']}/{run['attempted']} ops failed)")
    for name, metric in run["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    raw = run["raw"]
    for name in ("wall1_s", "wall2_s", "setup_wall_s"):
        if raw.get(name):
            label = f"raw {name} (median)"
            print(f"  {label:36s} {statistics.median(raw[name]):14.6g} s")
    for name in run["mismatches"][:20]:
        print(f"  FAILED CHECK {name}")


def write_runs(path: str, runs: list[dict]) -> None:
    existing: list = []
    if os.path.exists(path):
        with open(path) as fh:
            existing = json.load(fh)
    with open(path, "w") as fh:
        json.dump(existing + runs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_expected(runs: list[dict]) -> None:
    for run in runs:
        pinned = load_expected(run["seed"])
        pinned[run["workload"]] = run["outputs"]
        os.makedirs(EXPECTED_DIR, exist_ok=True)
        with open(expected_path(run["seed"]), "w") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")


def summary(runs: list[dict]) -> dict:
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {
            f"{run['workload']}.{name}": metric
            for run in runs for name, metric in run["metrics"].items()
        }
    return {
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }


def parse_args(argv, workload_names) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workload_names,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=7,
                        help="input seed; 7 matches the committed results/")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long each workload repeats its passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics instead")
    parser.add_argument("--out", help="append the run records to this JSON file")
    parser.add_argument("--write-expected", action="store_true",
                        help="pin this seed's outputs in bench/expected/")
    parser.add_argument("--role", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    if args.role:
        return child_main(args)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    runs = []
    for name in [args.workload] if args.workload else names:
        try:
            runs.append(run_workload(name, args, spec))
        except BenchError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 1
        print_run(runs[-1])
    if args.out:
        write_runs(args.out, runs)
    if args.write_expected:
        write_expected(runs)
    print(json.dumps(summary(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
