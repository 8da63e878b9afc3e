"""Table IV: the three PIMnet tiers and their derived bandwidth figures."""

from __future__ import annotations

from dataclasses import dataclass

from ..config.network import PimnetNetworkConfig, TierLinkConfig
from ..config.presets import MachineConfig
from ..config.units import GB
from ..runner.registry import register_monolithic
from .common import ExperimentTable, default_machine


@dataclass(frozen=True)
class TierSummary:
    name: str
    num_channels: int
    width_bits: int
    bandwidth_gbs: float
    topology: str
    router: str


@dataclass(frozen=True)
class TiersResult:
    tiers: tuple[TierSummary, ...]
    chip_bisection_gbs: float
    rank_interbank_bisection_gbs: float
    rank_aggregate_gbs: float


def run(machine: MachineConfig | None = None) -> TiersResult:
    machine = machine or default_machine()
    net: PimnetNetworkConfig = machine.pimnet
    system = machine.system

    def summarize(link: TierLinkConfig, topology: str, router: str) -> TierSummary:
        return TierSummary(
            name=link.name,
            num_channels=link.num_channels,
            width_bits=link.width_bits,
            bandwidth_gbs=link.bandwidth_per_channel_bytes_per_s / GB,
            topology=topology,
            router=router,
        )

    bank_bw = net.inter_bank.bandwidth_per_channel_bytes_per_s / GB
    chip_bisection = bank_bw * net.inter_bank.num_channels
    return TiersResult(
        tiers=(
            summarize(net.inter_bank, "ring", "PIMnet stop"),
            summarize(net.inter_chip, "crossbar", "buffer chip"),
            summarize(net.inter_rank, "bus", "buffer chip"),
        ),
        # 4 x 0.7 GB/s per chip = 2.8 GB/s bisection (paper Sec IV-B)
        chip_bisection_gbs=chip_bisection,
        # x chips per rank = 22.4 GB/s
        rank_interbank_bisection_gbs=chip_bisection * system.chips_per_rank,
        # all banks sending in parallel: 2.8 x 64 = 179.2 GB/s per rank
        rank_aggregate_gbs=chip_bisection * system.banks_per_rank,
    )


def build_tables(result: TiersResult) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (
            t.name,
            t.num_channels,
            t.width_bits,
            f"{t.bandwidth_gbs:.2f}",
            t.topology,
            t.router,
        )
        for t in result.tiers
    )
    return (
        ExperimentTable(
            "Table IV",
            "PIMnet network hierarchy",
            ("tier", "#ch", "width(b)", "GB/s per ch", "topology", "router"),
            rows,
            notes=(
                f"chip bisection {result.chip_bisection_gbs:.1f} GB/s; "
                f"rank inter-bank bisection "
                f"{result.rank_interbank_bisection_gbs:.1f} GB/s; aggregate "
                f"{result.rank_aggregate_gbs:.1f} GB/s per rank "
                "(paper: 2.8 / 22.4 / 179.2)"
            ),
        ),
    )


SPEC = register_monolithic(
    "table04", "Table IV: PIMnet network hierarchy", run, build_tables
)
