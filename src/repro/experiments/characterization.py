"""Host-link characterization (the Section III context of Table VI).

Reproduces the shape of the real-UPMEM transfer measurements the paper
builds on [39]: effective host<->PIM bandwidth as a function of transfer
size (fixed per-call overheads crush small transfers) and of access
pattern (chip-transposition costs for per-DPU collective buffers vs
optimized bulk transfers).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.host_baseline import HostBaselineBackend
from ..config.presets import MachineConfig
from ..memory.channel import DdrChannel
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

TRANSFER_SIZES = tuple(4 * 1024 * (4 ** e) for e in range(7))  # 4KiB..16MiB


@dataclass(frozen=True)
class CharacterizationResult:
    sizes: tuple[int, ...]
    #: effective GB/s per direction per size
    gather_gbs: tuple[float, ...]
    scatter_gbs: tuple[float, ...]
    broadcast_gbs: tuple[float, ...]
    peak_gather_gbs: float
    transposed_gather_gbs: float


def _point(machine: MachineConfig, size: int) -> dict[str, float]:
    """Effective GB/s per direction at one transfer size."""
    channel = DdrChannel(machine.host_links, machine.host)
    ranks = machine.system.ranks_per_channel
    return {
        "gather": size / channel.pim_to_cpu(size, ranks).time_s / 1e9,
        "scatter": size / channel.cpu_to_pim(size, ranks).time_s / 1e9,
        "broadcast": (
            size / channel.cpu_to_pim_broadcast(size, ranks).time_s / 1e9
        ),
    }


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, float], ...]
) -> CharacterizationResult:
    peak = machine.host_links.pim_to_cpu_bytes_per_s / 1e9
    return CharacterizationResult(
        sizes=TRANSFER_SIZES,
        gather_gbs=tuple(v["gather"] for v in values),
        scatter_gbs=tuple(v["scatter"] for v in values),
        broadcast_gbs=tuple(v["broadcast"] for v in values),
        peak_gather_gbs=peak,
        transposed_gather_gbs=(
            peak * HostBaselineBackend.transpose_efficiency
        ),
    )


def build_tables(
    result: CharacterizationResult,
) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (
            f"{size // 1024} KiB",
            f"{g:.2f}",
            f"{s:.2f}",
            f"{b:.2f}",
        )
        for size, g, s, b in zip(
            result.sizes,
            result.gather_gbs,
            result.scatter_gbs,
            result.broadcast_gbs,
        )
    )
    return (
        ExperimentTable(
            "Host-link characterization",
            "Effective host<->PIM bandwidth vs transfer size (GB/s)",
            ("size", "PIM->CPU", "CPU->PIM", "CPU->PIM bcast"),
            rows,
            notes=(
                f"asymptotes: {result.peak_gather_gbs:.2f} GB/s bulk gather "
                f"(paper: 4.74), {result.transposed_gather_gbs:.2f} GB/s for "
                "per-DPU collective buffers (chip transposition)"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"size": size})
        for i, size in enumerate(TRANSFER_SIZES)
    )


SPEC = register_experiment(
    experiment_id="characterization",
    title="Host-link characterization (Sec III)",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
