"""Fig 11: PIM-communication time breakdown and speedup vs prior work.

For each workload: PIMnet's communication time split into inter-bank /
inter-chip / inter-rank / Sync / Mem, plus the communication-only
speedup over DIMM-Link (or NDPBridge for the All-to-All workloads NTT
and Join, which DIMM-Link's reduction-centric buffer chips would handle
the same way the paper normalizes them).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.breakdown import comm_percentages
from ..collectives.result import CommBreakdown
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from ..workloads import compare_backends, paper_workloads
from .common import ExperimentTable

#: The paper normalizes NTT and Join to NDPBridge, everything else to
#: DIMM-Link.
A2A_WORKLOADS = frozenset({"NTT", "Join"})


@dataclass(frozen=True)
class CommBreakdownEntry:
    workload: str
    pimnet: CommBreakdown
    reference_backend: str
    comm_speedup: float


@dataclass(frozen=True)
class CommBreakdownResult:
    entries: tuple[CommBreakdownEntry, ...]


def _point(machine: MachineConfig, workload: str) -> dict:
    """One Fig 11 row: PIMnet breakdown plus comm-only speedup."""
    results = compare_backends(
        paper_workloads()[workload], machine, ["N", "D", "P"]
    )
    reference = "N" if workload in A2A_WORKLOADS and "N" in results else "D"
    pimnet = results["P"]
    ref = results[reference]
    return {
        "pimnet_comm": pimnet.comm.as_dict(),
        "reference_backend": reference,
        "comm_speedup": ref.comm_s / pimnet.comm_s
        if pimnet.comm_s > 0
        else float("inf"),
    }


def _entry(workload: str, value: dict) -> CommBreakdownEntry:
    return CommBreakdownEntry(
        workload=workload,
        pimnet=CommBreakdown(**value["pimnet_comm"]),
        reference_backend=value["reference_backend"],
        comm_speedup=value["comm_speedup"],
    )


def build_tables(result: CommBreakdownResult) -> tuple[ExperimentTable, ...]:
    rows = []
    for e in result.entries:
        parts = comm_percentages(e.pimnet)
        rows.append(
            (
                e.workload,
                f"{e.pimnet.total_s * 1e6:.1f}",
                f"{parts['Inter-bank']:.0f}%",
                f"{parts['Inter-chip']:.0f}%",
                f"{parts['Inter-rank']:.0f}%",
                f"{parts['Sync']:.0f}%",
                f"{parts['Mem']:.0f}%",
                f"{e.comm_speedup:.1f}x vs {e.reference_backend}",
            )
        )
    return (
        ExperimentTable(
            "Fig 11",
            "PIMnet communication breakdown and comm-only speedup",
            (
                "workload", "comm us", "bank", "chip", "rank", "sync", "mem",
                "speedup",
            ),
            tuple(rows),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"workload": name})
        for i, name in enumerate(paper_workloads())
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict, ...]
) -> CommBreakdownResult:
    entries = tuple(
        _entry(name, value)
        for name, value in zip(paper_workloads(), values)
    )
    return CommBreakdownResult(entries=entries)


SPEC = register_experiment(
    experiment_id="fig11",
    title="Fig 11: communication time breakdown",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
