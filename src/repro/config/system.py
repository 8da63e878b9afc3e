"""System-level configuration of the PIM machine being modeled.

The hierarchy mirrors UPMEM packaging (Fig 1 of the paper): a *bank* is the
unit of compute (one DPU + its 64 MB MRAM), 8 banks share a DRAM *chip*,
8 chips form a *rank* (one PIM DIMM side), several ranks share a memory
*channel*, and a server has several channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from . import units
from .units import check_number


@dataclass(frozen=True)
class DpuConfig:
    """Per-DPU microarchitecture parameters (UPMEM DPU defaults).

    ``pipeline_depth`` and ``min_tasklets_full_throughput`` encode the
    UPMEM revolving pipeline: one instruction issues per cycle only when at
    least 11 tasklets are resident; below that the pipeline round-robins
    with bubbles.
    """

    frequency_hz: float = 350 * units.MHZ
    pipeline_depth: int = 14
    num_hw_tasklets: int = 24
    min_tasklets_full_throughput: int = 11
    wram_bytes: int = 64 * units.KIB
    iram_bytes: int = 24 * units.KIB
    mram_bytes: int = 64 * units.MIB

    def __post_init__(self) -> None:
        check_number(self.frequency_hz, "DPU frequency", ConfigurationError,
                     above=0)
        for name in ("pipeline_depth", "num_hw_tasklets", "wram_bytes",
                     "iram_bytes", "mram_bytes"):
            check_number(getattr(self, name), name, ConfigurationError,
                         integer=True, at_least=1)
        check_number(self.min_tasklets_full_throughput,
                     "min_tasklets_full_throughput", ConfigurationError,
                     integer=True, at_least=1, at_most=self.num_hw_tasklets)

    @property
    def cycle_time_s(self) -> float:
        """Duration of one DPU clock cycle in seconds."""
        return 1.0 / self.frequency_hz


@dataclass(frozen=True)
class PimSystemConfig:
    """Shape of the PIM system: banks/chips/ranks/channels.

    Defaults correspond to the paper's simulated system (Table VI):
    8 banks per chip, 8 chips per rank, 4 ranks per channel — i.e. 256
    DPUs per memory channel, the scope of one PIMnet instance.
    """

    banks_per_chip: int = 8
    chips_per_rank: int = 8
    ranks_per_channel: int = 4
    num_channels: int = 1
    dpu: DpuConfig = field(default_factory=DpuConfig)

    def __post_init__(self) -> None:
        for name in (
            "banks_per_chip",
            "chips_per_rank",
            "ranks_per_channel",
            "num_channels",
        ):
            check_number(getattr(self, name), name, ConfigurationError,
                         integer=True, at_least=1)

    # -- derived counts -----------------------------------------------------
    @property
    def banks_per_rank(self) -> int:
        return self.banks_per_chip * self.chips_per_rank

    @property
    def banks_per_channel(self) -> int:
        return self.banks_per_rank * self.ranks_per_channel

    def scaled_to_dpus(self, num_dpus: int) -> "PimSystemConfig":
        """Return a copy resized to ``num_dpus`` on a single channel.

        Used by the weak-scaling experiments (Figs 3 and 12), which grow the
        system 8 → 256 DPUs.  DPUs fill banks first, then chips, then ranks,
        matching how a real server would be populated.
        """
        if num_dpus < 1:
            raise ConfigurationError("need at least one DPU")
        banks = min(num_dpus, self.banks_per_chip)
        if num_dpus % banks != 0:
            raise ConfigurationError(
                f"{num_dpus} DPUs do not evenly fill {banks}-bank chips"
            )
        chips_needed = num_dpus // banks
        chips = min(chips_needed, self.chips_per_rank)
        if chips_needed % chips != 0:
            raise ConfigurationError(
                f"{num_dpus} DPUs do not evenly fill {chips}-chip ranks"
            )
        ranks = chips_needed // chips
        if ranks > self.ranks_per_channel:
            raise ConfigurationError(
                f"{num_dpus} DPUs exceed one channel "
                f"({self.banks_per_channel} banks)"
            )
        return PimSystemConfig(
            banks_per_chip=banks,
            chips_per_rank=chips,
            ranks_per_channel=ranks,
            num_channels=1,
            dpu=self.dpu,
        )


@dataclass(frozen=True)
class HostConfig:
    """Host CPU model used for host-mediated (baseline) collectives.

    The reduce bandwidth is the sustained rate at which the host can combine
    gathered partial results in memory; launch/receive overheads model the
    per-API-call costs that PID-Comm attacks (and that Software(Ideal)
    removes entirely).
    """

    num_cores: int = 16
    frequency_hz: float = 4 * units.GHZ
    reduce_bandwidth_bytes_per_s: float = 25 * units.GB
    kernel_launch_overhead_s: float = 20 * units.US
    transfer_setup_overhead_s: float = 10 * units.US
    per_rank_transfer_overhead_s: float = 2 * units.US

    def __post_init__(self) -> None:
        check_number(self.num_cores, "host num_cores", ConfigurationError,
                     integer=True, at_least=1)
        check_number(self.frequency_hz, "host frequency", ConfigurationError,
                     above=0)
        check_number(self.reduce_bandwidth_bytes_per_s,
                     "host reduce bandwidth", ConfigurationError, above=0)
        for name in (
            "kernel_launch_overhead_s",
            "transfer_setup_overhead_s",
            "per_rank_transfer_overhead_s",
        ):
            check_number(getattr(self, name), name, ConfigurationError,
                         at_least=0)
