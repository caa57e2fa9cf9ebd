"""Declarative design space over chip topology, scheduler, and workload mix.

The paper evaluates seven fixed core configurations of one chip
(Table III); this module makes the *configuration itself* the variable.
A :class:`DesignSpace` is a mapping of axis names to candidate values —
core counts, per-cluster maximum operating points, L2 sizes, HMP and
governor parameters, and the workload mix — plus an optional
:class:`Budget` (area / peak power) that carves out the feasible region.

Every :class:`DesignPoint` lowers **deterministically** to
:class:`~repro.runner.spec.RunSpec` objects (one per workload in the
point's mix) via :func:`lower_point`: the chip is built as an inline
:class:`~repro.platform.chip.ChipSpec` whose content hash is stable, the
scheduler config gets a canonical name derived from its parameters, and
the specs declare ``trace_policy="none"`` plus in-worker reductions — so
a thousand-point study ships a few hundred bytes per point and every
re-run resolves from the content-addressed result cache.

Area and peak-power estimates are representative 28 nm figures (A7-class
core ~0.45 mm2, A15-class ~2.0 mm2, dense SRAM for L2); only their
*relative* weight matters for budget-constrained search, mirroring how
lumos-style MPSoC DSE treats its budgets.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.platform.chip import ChipSpec, CoreConfig
from repro.platform.coretypes import ClusterSpec, CoreType, cortex_a15, cortex_a7
from repro.platform.opp import OPPTable, big_opp_table, little_opp_table
from repro.sched.params import GovernorParams, HMPParams, SchedulerConfig
from repro.units import LOAD_SCALE

__all__ = [
    "AXIS_DEFAULTS",
    "Budget",
    "DesignPoint",
    "DesignSpace",
    "TopologyParams",
    "lower_point",
    "reference_space",
]

# -- representative silicon-cost constants (28 nm class) --------------------

#: Core area including private L1s, mm2.
LITTLE_CORE_MM2 = 0.45
BIG_CORE_MM2 = 2.0
#: Cluster-shared L2 SRAM + tags, mm2 per KiB.
L2_MM2_PER_KB = 0.004


@dataclass(frozen=True)
class TopologyParams:
    """One candidate chip topology.

    Core counts are *enabled* counts (0 allowed per cluster, at least
    one core overall); ``*_max_khz`` truncates the Exynos-5422-shaped
    OPP table at that operating point, keeping the same V/f curve; L2
    sizes feed both the cache-capacity performance model and the area
    estimate.
    """

    little_cores: int = 4
    big_cores: int = 4
    little_max_khz: int = 1_300_000
    big_max_khz: int = 1_900_000
    little_l2_kb: int = 512
    big_l2_kb: int = 2048

    def __post_init__(self) -> None:
        if self.little_cores < 0 or self.big_cores < 0:
            raise ValueError("core counts must be non-negative")
        if self.little_cores + self.big_cores < 1:
            raise ValueError("a topology needs at least one core")
        if self.little_l2_kb <= 0 or self.big_l2_kb <= 0:
            raise ValueError("L2 sizes must be positive")

    # -- lowering ----------------------------------------------------------

    def chip_name(self) -> str:
        return (
            f"dse-L{self.little_cores}x{self.little_max_khz // 1000}"
            f"-{self.little_l2_kb}k"
            f"-B{self.big_cores}x{self.big_max_khz // 1000}"
            f"-{self.big_l2_kb}k"
        )

    def chip_spec(self, screen_on: bool = True) -> ChipSpec:
        """Build the inline chip this topology describes.

        A cluster with zero enabled cores is still instantiated with one
        physical core (``ClusterSpec`` requires at least one) and then
        disabled wholesale through :meth:`core_config` — a powered-down
        cluster contributes neither core nor uncore power.
        """
        from dataclasses import replace as _replace

        from repro.platform.chip import SCREEN_ON_MW
        from repro.platform.power import PowerParams

        little_spec = _replace(cortex_a7(), l2_kb=self.little_l2_kb)
        big_spec = _replace(cortex_a15(), l2_kb=self.big_l2_kb)
        power = PowerParams(screen_mw=SCREEN_ON_MW) if screen_on else None
        return ChipSpec(
            name=self.chip_name(),
            little_cluster=ClusterSpec(
                spec=little_spec,
                num_cores=max(1, self.little_cores),
                opp_table=_truncate_opps(little_opp_table(), self.little_max_khz),
            ),
            big_cluster=ClusterSpec(
                spec=big_spec,
                num_cores=max(1, self.big_cores),
                opp_table=_truncate_opps(big_opp_table(), self.big_max_khz),
            ),
            power_params=power,
        )

    def core_config(self) -> CoreConfig:
        return CoreConfig(little=self.little_cores, big=self.big_cores)

    # -- budget metrics ----------------------------------------------------

    def area_mm2(self) -> float:
        """Silicon area of the enabled clusters (cores + shared L2)."""
        area = 0.0
        if self.little_cores > 0:
            area += self.little_cores * LITTLE_CORE_MM2
            area += self.little_l2_kb * L2_MM2_PER_KB
        if self.big_cores > 0:
            area += self.big_cores * BIG_CORE_MM2
            area += self.big_l2_kb * L2_MM2_PER_KB
        return area

    def peak_power_mw(self) -> float:
        """All enabled cores busy at their maximum operating point.

        Evaluated through the calibrated :class:`PowerModel` (CPU
        complex only — base/screen power is common to every candidate
        and would only shift the budget constant).
        """
        chip = self.chip_spec(screen_on=False)
        model = chip.power_model
        total = 0.0
        for core_type, count in (
            (CoreType.LITTLE, self.little_cores),
            (CoreType.BIG, self.big_cores),
        ):
            if count <= 0:
                continue
            table = chip.cluster(core_type).opp_table
            freq = table.max_khz
            volt = table.voltage_at(freq)
            total += count * model.core_power_mw(core_type, freq, volt, 1.0)
            total += model.cluster_power_mw(core_type, True)
        return total


def _truncate_opps(table: OPPTable, max_khz: int) -> OPPTable:
    """Keep the operating points at or below ``max_khz`` (same V/f curve)."""
    opps = [p for p in table if p.freq_khz <= max_khz]
    if not opps:
        raise ValueError(
            f"no operating points at or below {max_khz} kHz "
            f"(table spans {table.min_khz}-{table.max_khz})"
        )
    return OPPTable(opps)


@dataclass(frozen=True)
class Budget:
    """Feasibility constraints on a topology; ``None`` disables a bound."""

    max_area_mm2: Optional[float] = None
    max_power_mw: Optional[float] = None

    def admits(self, topology: TopologyParams) -> bool:
        if self.max_area_mm2 is not None and topology.area_mm2() > self.max_area_mm2:
            return False
        if self.max_power_mw is not None and topology.peak_power_mw() > self.max_power_mw:
            return False
        return True


# -- axes -------------------------------------------------------------------

#: Every axis a space may sweep, with its baseline (paper-platform)
#: value.  Axes absent from a space pin to these defaults.
AXIS_DEFAULTS: dict[str, Any] = {
    "little_cores": 4,
    "big_cores": 4,
    "little_max_khz": 1_300_000,
    "big_max_khz": 1_900_000,
    "little_l2_kb": 512,
    "big_l2_kb": 2048,
    "hmp_up": 700,
    "hmp_down": 256,
    "hmp_halflife_ms": 32.0,
    "gov_sampling_ms": 20,
    "gov_target_load": 0.70,
    "gov_hold_ms": 80,
    "gov_hispeed_fraction": 0.80,
    "workloads": ("video-player",),
}

_TOPOLOGY_AXES = (
    "little_cores", "big_cores", "little_max_khz", "big_max_khz",
    "little_l2_kb", "big_l2_kb",
)


@dataclass(frozen=True)
class DesignPoint:
    """One assignment of every axis, hashable and JSON-stable."""

    params: tuple[tuple[str, Any], ...]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "DesignPoint":
        unknown = set(mapping) - set(AXIS_DEFAULTS)
        if unknown:
            raise KeyError(
                f"unknown design axes: {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(sorted(AXIS_DEFAULTS))}"
            )
        merged = dict(AXIS_DEFAULTS)
        merged.update(mapping)
        if isinstance(merged["workloads"], str):
            merged = {**merged, "workloads": (merged["workloads"],)}
        else:
            merged = {**merged, "workloads": tuple(merged["workloads"])}
        return cls(params=tuple(sorted(merged.items())))

    def get(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def as_dict(self) -> dict[str, Any]:
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.params}

    def key(self) -> str:
        payload = json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def topology(self) -> TopologyParams:
        return TopologyParams(**{name: self.get(name) for name in _TOPOLOGY_AXES})

    def workloads(self) -> tuple[str, ...]:
        return self.get("workloads")

    def scheduler_config(self) -> SchedulerConfig:
        """The point's HMP + governor parameters under a canonical name.

        The name encodes the non-topology parameters compactly
        (``dse-u550-d100-w32-i20-t70-h80-f80``) so explore progress
        lines stay readable; it also keeps distinct parameter sets
        distinct in the spec manifest.
        """
        up = int(self.get("hmp_up"))
        down = int(self.get("hmp_down"))
        halflife = float(self.get("hmp_halflife_ms"))
        sampling = int(self.get("gov_sampling_ms"))
        target = float(self.get("gov_target_load"))
        hold = int(self.get("gov_hold_ms"))
        hispeed = float(self.get("gov_hispeed_fraction"))
        name = (
            f"dse-u{up}-d{down}-w{halflife:g}-i{sampling}"
            f"-t{round(target * 100)}-h{hold}-f{round(hispeed * 100)}"
        )
        return SchedulerConfig(
            name=name,
            hmp=HMPParams(
                up_threshold=up,
                down_threshold=down,
                history_halflife_ms=halflife,
            ),
            governor=GovernorParams(
                sampling_ms=sampling,
                target_load=target,
                hold_ms=hold,
                hispeed_fraction=hispeed,
            ),
        )

    def label(self) -> str:
        t = self.topology()
        return f"L{t.little_cores}+B{t.big_cores}@{t.big_max_khz // 1000}/{self.key()[:6]}"


class DesignSpace:
    """A finite cartesian product of axis candidates plus a budget.

    Axis values must be non-empty sequences; axes not named pin to
    :data:`AXIS_DEFAULTS`.  ``workloads`` axis values are workload-name
    tuples (a *mix* — each point runs every workload in its mix).
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        budget: Optional[Budget] = None,
    ):
        unknown = set(axes) - set(AXIS_DEFAULTS)
        if unknown:
            raise KeyError(
                f"unknown design axes: {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(sorted(AXIS_DEFAULTS))}"
            )
        self.axes: dict[str, tuple[Any, ...]] = {}
        for name, values in axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no candidate values")
            self.axes[name] = values
        self.budget = budget

    def size(self) -> int:
        """Cartesian-product size, before budget filtering."""
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def points(self) -> Iterator[DesignPoint]:
        """Every *feasible* point, in deterministic axis-major order.

        Infeasible topologies (budget violations, impossible parameter
        combinations such as ``hmp_down >= hmp_up``) are silently
        skipped — the feasible region *is* the space.
        """
        names = sorted(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            mapping = dict(zip(names, combo))
            if not _valid_scheduler_combo(mapping):
                continue
            point = DesignPoint.from_mapping(mapping)
            if self.budget is not None and not self.budget.admits(point.topology()):
                continue
            yield point

    def feasible_points(self) -> list[DesignPoint]:
        return list(self.points())

    def manifest(self) -> dict[str, Any]:
        """JSON description of the space (the study artifact's header)."""
        axes = {
            name: [list(v) if isinstance(v, tuple) else v for v in values]
            for name, values in sorted(self.axes.items())
        }
        return {
            "axes": axes,
            "budget": {
                "max_area_mm2": self.budget.max_area_mm2,
                "max_power_mw": self.budget.max_power_mw,
            }
            if self.budget is not None
            else None,
        }

    def key(self) -> str:
        payload = json.dumps(self.manifest(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _valid_scheduler_combo(mapping: Mapping[str, Any]) -> bool:
    """Cross-axis validity that single-axis candidates cannot express."""
    up = mapping.get("hmp_up", AXIS_DEFAULTS["hmp_up"])
    down = mapping.get("hmp_down", AXIS_DEFAULTS["hmp_down"])
    target = mapping.get("gov_target_load", AXIS_DEFAULTS["gov_target_load"])
    if not 0 < down < up <= LOAD_SCALE:
        return False
    if not 0.0 < target <= 1.0:
        return False
    little = mapping.get("little_cores", AXIS_DEFAULTS["little_cores"])
    big = mapping.get("big_cores", AXIS_DEFAULTS["big_cores"])
    if little + big < 1:
        return False
    return True


# -- lowering ---------------------------------------------------------------

#: Reductions every explore spec declares: a few hundred bytes that let
#: the frontier artifact report power composition without any trace.
EXPLORE_REDUCTIONS = ("power_summary",)


def lower_point(
    point: DesignPoint,
    max_seconds: float,
    seed: int = 0,
    reductions: tuple[str, ...] = EXPLORE_REDUCTIONS,
):
    """Deterministically lower a design point to its :class:`RunSpec` list.

    One spec per workload in the point's mix; all specs share the
    point's inline chip and scheduler config, run for ``max_seconds``
    simulated seconds (the sampler's fidelity knob), and declare
    ``trace_policy="none"`` — nothing but scalars and reductions ever
    crosses a process boundary or lands in the cache.
    """
    from repro.runner.spec import RunSpec

    chip = point.topology().chip_spec()
    core_config = point.topology().core_config().label()
    scheduler = point.scheduler_config()
    return [
        RunSpec(
            workload,
            chip=chip,
            core_config=core_config,
            scheduler=scheduler,
            seed=seed,
            max_seconds=max_seconds,
            reductions=reductions,
            trace_policy="none",
        )
        for workload in point.workloads()
    ]


def reference_space(
    workloads: Sequence[str] = ("browser", "pdf-reader"),
    budget: Optional[Budget] = Budget(max_area_mm2=20.5),
) -> DesignSpace:
    """The documented reference scenario: topology x governor x HMP.

    320 cartesian points; the 20.5 mm2 area budget admits the paper's
    full 4L+4B chip (~20.0 mm2) but excludes every 6-big-core
    topology, leaving a 256-point feasible region — the scale the
    acceptance tests and the CI smoke run exercise.
    """
    return DesignSpace(
        axes={
            "little_cores": (1, 2, 3, 4),
            "big_cores": (0, 1, 2, 4, 6),
            "big_max_khz": (1_400_000, 1_900_000),
            "hmp_up": (550, 700),
            "gov_target_load": (0.60, 0.70),
            "gov_sampling_ms": (20, 60),
            "workloads": (tuple(workloads),),
        },
        budget=budget,
    )
