"""Fig 15: PIMnet benefit under alternative PIM compute throughputs.

MLP and NTT (the two most compute-bound workloads) rerun with the
compute profiles of HBM-PIM and GDDR6-AiM (hardware MACs, 64x and 180x
the UPMEM arithmetic throughput): as compute shrinks, communication
dominates and PIMnet's advantage grows — the paper reports MLP moving
from 1.3x to ~40x under GDDR6-AiM-class compute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config.compute import ALT_PIM_PROFILES
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from ..workloads import MlpWorkload, NttWorkload, compare_backends
from .common import ExperimentTable

PROFILES = ("UPMEM", "HBM-PIM", "GDDR6-AiM")
WORKLOAD_NAMES = ("MLP", "NTT")


def _workloads():
    return {"MLP": MlpWorkload(), "NTT": NttWorkload()}


@dataclass(frozen=True)
class AltPimResult:
    #: speedups[workload][profile] = PIMnet speedup over baseline
    speedups: dict[str, dict[str, float]]

    def gain(self, workload: str) -> float:
        """How much the PIMnet benefit grows from UPMEM to GDDR6-AiM."""
        row = self.speedups[workload]
        return row["GDDR6-AiM"] / row["UPMEM"]


def _point(machine: MachineConfig, workload: str, profile: str) -> float:
    """PIMnet speedup over Baseline at one (workload, compute profile)."""
    m = replace(machine, compute=ALT_PIM_PROFILES[profile])
    results = compare_backends(_workloads()[workload], m, ["B", "P"])
    return results["P"].speedup_over(results["B"])


def build_tables(result: AltPimResult) -> tuple[ExperimentTable, ...]:
    rows = []
    for name, row in result.speedups.items():
        rows.append(
            (name,)
            + tuple(f"{row[p]:.2f}x" for p in PROFILES)
            + (f"{result.gain(name):.1f}x",)
        )
    return (
        ExperimentTable(
            "Fig 15",
            "PIMnet speedup over Baseline with alternative PIM compute",
            ("workload",) + PROFILES + ("benefit growth",),
            tuple(rows),
            notes="paper: MLP benefit grows to ~40x with GDDR6-AiM compute",
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    points = []
    for name in WORKLOAD_NAMES:
        for profile in PROFILES:
            points.append(
                SweepPoint(
                    len(points), {"workload": name, "profile": profile}
                )
            )
    return tuple(points)


def _assemble(
    machine: MachineConfig, values: tuple[float, ...]
) -> AltPimResult:
    it = iter(values)
    speedups = {
        name: {profile: next(it) for profile in PROFILES}
        for name in WORKLOAD_NAMES
    }
    return AltPimResult(speedups=speedups)


SPEC = register_experiment(
    experiment_id="fig15",
    title="Fig 15: alternative PIM compute profiles",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
