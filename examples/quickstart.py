"""Quickstart: characterize one mobile app on the asymmetric platform.

Runs BBench under the default HMP scheduler + interactive governor on
the 4+4 Exynos-5422-like chip, then prints the paper's per-app analyses:
TLP statistics (Table III row), the (big, little) activity matrix
(Table IV), the efficiency decomposition (Table V row), and the
little-cluster frequency residency (Figure 9).

Run:  python examples/quickstart.py [app-name] [seed]
"""

import sys

from repro.core.report import render_table
from repro.core.study import CharacterizationStudy
from repro.workloads.mobile import MOBILE_APP_NAMES


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "bbench"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 7
    if app not in MOBILE_APP_NAMES:
        raise SystemExit(f"unknown app {app!r}; choose from {', '.join(MOBILE_APP_NAMES)}")

    study = CharacterizationStudy(seed=seed)
    c = study.characterize(app)

    print(c.render())  # Table III row, Table IV matrix, Table V row
    print()
    freqs = sorted(c.little_residency)
    print(render_table(
        [f"{f/1e6:.1f}GHz" for f in freqs],
        [[c.little_residency[f] for f in freqs]],
        title=f"{app}: little-cluster frequency residency % (Figure 9)",
        float_fmt="{:.1f}",
    ))

    run = c.run
    print()
    if run.metric.value == "latency":
        print(f"user-script latency: {run.latency_s():.2f} s")
    else:
        print(f"average FPS: {run.avg_fps():.1f}   minimum FPS: {run.min_fps():.1f}")
    print(f"average system power: {run.avg_power_mw():.0f} mW "
          f"({run.energy_mj() / 1000:.1f} J over {run.trace.duration_s:.1f} s)")


if __name__ == "__main__":
    main()
