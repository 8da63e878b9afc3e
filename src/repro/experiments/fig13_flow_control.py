"""Fig 13: credit-based flow control vs PIM-controlled scheduling.

Runs both flow-control disciplines in the cycle-level NoC simulator on
the PIMnet topology, driven by per-DPU compute-finish skew (the paper
used times measured on real UPMEM hardware; we use a seeded lognormal).
The paper's findings: AllReduce within ~1% of each other; All-to-All
18.7% faster under PIM-controlled scheduling because credit-based flow
control suffers contention at the inter-chip crossbar.

The default scope is one rank (8 chips' worth of crossbar traffic) —
the tier whose contention the paper analyzes — kept small enough for a
pure-Python flit simulator.

The comparison is only honest if the credit-mode arbitration is fair:
switch allocation rotates over each router's stable input-port list and
the shared bus rotates grants across ranks (see ``docs/NOC.md``), so
neither discipline wins by accident of link iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.patterns import Collective
from ..config.network import PimnetNetworkConfig
from ..config.presets import MachineConfig
from ..config.system import PimSystemConfig
from ..core.schedule import Shape
from ..core.sync import SyncTree
from ..schedcache import cached_build_schedule
from ..noc.network import NocNetwork
from ..noc.workload import run_flow_control_comparison
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

DEFAULTS = {
    "banks": 4,
    "chips": 4,
    "ranks": 1,
    "elements_per_dpu": 256,
    "mean_compute_cycles": 2000.0,
    "seed": 7,
}
PATTERNS = ("allreduce", "alltoall")


@dataclass(frozen=True)
class FlowControlResult:
    shape: Shape
    elements_per_dpu: int
    #: per pattern: {"credit": cycles, "scheduled": cycles, ...}
    allreduce: dict[str, int]
    alltoall: dict[str, int]

    def reduction_percent(self, pattern: str) -> float:
        """Time reduction of PIM-controlled scheduling vs credit (+ive =
        scheduling wins)."""
        data = self.allreduce if pattern == "allreduce" else self.alltoall
        return 100.0 * (1.0 - data["scheduled"] / data["credit"])


def _point(
    machine: MachineConfig,
    pattern: str,
    banks: int,
    chips: int,
    ranks: int,
    elements_per_dpu: int,
    mean_compute_cycles: float,
    seed: int,
) -> dict[str, int]:
    """One cycle-level comparison run; ``machine`` is not used (the NoC
    simulator is parameterized by shape, not the analytic machine)."""
    shape = Shape(banks=banks, chips=chips, ranks=ranks)
    network = NocNetwork(shape)
    sync = SyncTree(
        PimSystemConfig(
            banks_per_chip=banks,
            chips_per_rank=chips,
            ranks_per_channel=ranks,
        ),
        PimnetNetworkConfig(),
    )
    collective = (
        Collective.ALL_REDUCE
        if pattern == "allreduce"
        else Collective.ALL_TO_ALL
    )
    # Both flow-control modes replay the same frozen schedule, served
    # once per structure from the schedule-compilation cache.
    return run_flow_control_comparison(
        cached_build_schedule(collective, shape, elements_per_dpu),
        network,
        mean_compute_cycles=mean_compute_cycles,
        seed=seed,
        sync_tree=sync,
    )


def build_tables(result: FlowControlResult) -> tuple[ExperimentTable, ...]:
    rows = []
    for label, data in (
        ("AllReduce", result.allreduce),
        ("All-to-All", result.alltoall),
    ):
        pattern = "allreduce" if label == "AllReduce" else "alltoall"
        rows.append(
            (
                label,
                data["credit"],
                data["scheduled"],
                f"{result.reduction_percent(pattern):+.1f}%",
                data["credit_conflicts"],
                data["scheduled_conflicts"],
            )
        )
    s = result.shape
    return (
        ExperimentTable(
            "Fig 13",
            "Credit-based vs PIM-controlled scheduling (NoC cycles)",
            (
                "collective", "credit cyc", "scheduled cyc",
                "sched. time reduction", "conflicts (credit)",
                "conflicts (sched)",
            ),
            tuple(rows),
            notes=(
                f"{s.banks}x{s.chips}x{s.ranks} DPUs, "
                f"{result.elements_per_dpu} elems/DPU; paper: AR within 1%, "
                "A2A 18.7% reduction"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"pattern": pattern, **DEFAULTS})
        for i, pattern in enumerate(PATTERNS)
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, int], ...]
) -> FlowControlResult:
    return FlowControlResult(
        shape=Shape(
            banks=DEFAULTS["banks"],
            chips=DEFAULTS["chips"],
            ranks=DEFAULTS["ranks"],
        ),
        elements_per_dpu=DEFAULTS["elements_per_dpu"],
        allreduce=values[0],
        alltoall=values[1],
    )


SPEC = register_experiment(
    experiment_id="fig13",
    title="Fig 13: flow-control comparison (cycle-level NoC)",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
