"""Network configuration: PIMnet tiers, host links, and prior-work links.

All bandwidth constants default to the paper's Tables IV and VI:

* inter-bank ring: 4 channels x 16 bit over the partitioned bank I/O bus,
  0.7 GB/s per channel;
* inter-chip crossbar: DQ pins split 4-send/4-receive, 2 channels x 4 bit,
  1.05 GB/s per channel, routed through the DIMM buffer chip;
* inter-rank bus: the multi-drop 64-bit DDR bus, half-duplex, 16.8 GB/s,
  broadcast-capable;
* host links: 4.74 GB/s PIM->CPU, 6.68 GB/s CPU->PIM, 16.88 GB/s CPU->PIM
  broadcast (measured on real UPMEM hardware [39]);
* buffer-chip <-> PIM bandwidth for DIMM-Link/NDPBridge: 19.2 GB/s [89].
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigurationError
from . import units
from .units import check_number


@dataclass(frozen=True)
class TierLinkConfig:
    """One PIMnet tier's physical-channel parameters (one row of Table IV)."""

    name: str
    num_channels: int
    width_bits: int
    bandwidth_per_channel_bytes_per_s: float
    hop_latency_s: float
    half_duplex: bool = False
    broadcast_capable: bool = False

    def __post_init__(self) -> None:
        for attr in ("num_channels", "width_bits"):
            check_number(getattr(self, attr), f"{self.name}: {attr}",
                         ConfigurationError, integer=True, at_least=1)
        check_number(self.bandwidth_per_channel_bytes_per_s,
                     f"{self.name}: bandwidth", ConfigurationError, above=0)
        check_number(self.hop_latency_s, f"{self.name}: latency",
                     ConfigurationError, at_least=0)

    @property
    def link_bandwidth_bytes_per_s(self) -> float:
        """Usable per-node send bandwidth in one direction.

        For a half-duplex medium (the inter-rank bus) the single channel is
        time-shared between directions, so the one-direction figure *is* the
        channel bandwidth; for full-duplex tiers each direction gets one
        channel's worth.
        """
        return self.bandwidth_per_channel_bytes_per_s


@dataclass(frozen=True)
class PimnetNetworkConfig:
    """Full PIMnet fabric configuration (Table IV plus sync parameters)."""

    inter_bank: TierLinkConfig = TierLinkConfig(
        name="inter-bank",
        num_channels=4,
        width_bits=16,
        bandwidth_per_channel_bytes_per_s=0.7 * units.GB,
        hop_latency_s=2 * units.NS,
    )
    inter_chip: TierLinkConfig = TierLinkConfig(
        name="inter-chip",
        num_channels=2,
        width_bits=4,
        bandwidth_per_channel_bytes_per_s=1.05 * units.GB,
        hop_latency_s=4 * units.NS,
    )
    inter_rank: TierLinkConfig = TierLinkConfig(
        name="inter-rank",
        num_channels=1,
        width_bits=64,
        bandwidth_per_channel_bytes_per_s=16.8 * units.GB,
        hop_latency_s=5 * units.NS,
        half_duplex=True,
        broadcast_capable=True,
    )
    # Worst-case READY/START propagation across the whole fabric (paper:
    # ~15 ns, about 6 DPU cycles at 350 MHz).
    sync_latency_s: float = 15 * units.NS
    # Efficiency of point-to-point (unicast) transfers on the multi-drop
    # inter-rank bus.  Unlike the long reduction/broadcast streams of
    # AllReduce, All-to-All's rank tier issues many short rank-pair
    # bursts, each paying bus ownership turnaround; Section V-C's
    # "approximately 2x improvement" framing corresponds to roughly half
    # the raw bus rate being achievable for unicast traffic.
    inter_rank_unicast_efficiency: float = 0.5
    # MRAM<->WRAM DMA bandwidth per DPU, used for the "Mem" component of
    # Fig 11 when a payload does not fit in WRAM and must be staged.
    mram_wram_dma_bytes_per_s: float = 0.63 * units.GB

    def __post_init__(self) -> None:
        check_number(self.sync_latency_s, "sync latency",
                     ConfigurationError, at_least=0)
        check_number(self.mram_wram_dma_bytes_per_s, "DMA bandwidth",
                     ConfigurationError, above=0)
        check_number(self.inter_rank_unicast_efficiency,
                     "inter_rank_unicast_efficiency", ConfigurationError,
                     above=0, at_most=1)

    def with_inter_bank_bandwidth(self, gb_per_s: float) -> "PimnetNetworkConfig":
        """Copy with a different inter-bank channel bandwidth (Fig 14a)."""
        return replace(
            self,
            inter_bank=replace(
                self.inter_bank,
                bandwidth_per_channel_bytes_per_s=gb_per_s * units.GB,
            ),
        )

    def with_global_bandwidth_scale(self, scale: float) -> "PimnetNetworkConfig":
        """Copy with inter-chip and inter-rank bandwidth scaled (Fig 14b)."""
        if scale <= 0:
            raise ConfigurationError("bandwidth scale must be positive")
        return replace(
            self,
            inter_chip=replace(
                self.inter_chip,
                bandwidth_per_channel_bytes_per_s=(
                    self.inter_chip.bandwidth_per_channel_bytes_per_s * scale
                ),
            ),
            inter_rank=replace(
                self.inter_rank,
                bandwidth_per_channel_bytes_per_s=(
                    self.inter_rank.bandwidth_per_channel_bytes_per_s * scale
                ),
            ),
        )


@dataclass(frozen=True)
class HostLinkConfig:
    """Host <-> PIM channel bandwidths measured on real UPMEM [39]."""

    pim_to_cpu_bytes_per_s: float = 4.74 * units.GB
    cpu_to_pim_bytes_per_s: float = 6.68 * units.GB
    cpu_to_pim_broadcast_bytes_per_s: float = 16.88 * units.GB
    max_channel_bytes_per_s: float = 19.2 * units.GB

    def __post_init__(self) -> None:
        for name in (
            "pim_to_cpu_bytes_per_s",
            "cpu_to_pim_bytes_per_s",
            "cpu_to_pim_broadcast_bytes_per_s",
            "max_channel_bytes_per_s",
        ):
            check_number(getattr(self, name), name, ConfigurationError,
                         above=0)


@dataclass(frozen=True)
class BufferChipConfig:
    """Buffer-chip link used by DIMM-Link [89] and NDPBridge [85].

    Banks of one rank reach their buffer chip over a shared 19.2 GB/s link;
    DIMM-Link adds dedicated rank-to-rank bridges whose bandwidth we set
    equal to PIMnet's global (inter-rank) bandwidth for the paper's
    fair-comparison assumption.
    """

    bank_to_buffer_bytes_per_s: float = 19.2 * units.GB
    #: One DRAM chip's DQ share of the internal DIMM bus.  PIM data is
    #: not striped across chips, so the buffer chip's sequential
    #: collective stream moves at one chip's width regardless of how
    #: many chips the rank has.
    chip_dq_bytes_per_s: float = 2.4 * units.GB
    inter_rank_link_bytes_per_s: float = 16.8 * units.GB
    hop_latency_s: float = 10 * units.NS

    def __post_init__(self) -> None:
        for name in (
            "bank_to_buffer_bytes_per_s",
            "chip_dq_bytes_per_s",
            "inter_rank_link_bytes_per_s",
        ):
            check_number(getattr(self, name), name, ConfigurationError,
                         above=0)
        check_number(self.hop_latency_s, "hop latency", ConfigurationError,
                     at_least=0)
