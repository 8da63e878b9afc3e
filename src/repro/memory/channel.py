"""DDR memory-channel model for host <-> PIM transfers.

Every rank on a channel shares one DDR bus, so host-mediated transfers to
or from the banks of a channel are serialized on that bus.  The model
charges per-transfer setup overheads (API call, rank switch) on top of
pure serialization time at the measured UPMEM bandwidths; an "ideal"
mode drops the overheads (the Software(Ideal) comparison point).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config.network import HostLinkConfig
from ..config.system import HostConfig
from ..config.units import transfer_time
from ..errors import MemoryModelError


@dataclass(frozen=True)
class ChannelTransfer:
    """Record of one host<->PIM bulk transfer over a memory channel."""

    direction: str  # "pim_to_cpu" | "cpu_to_pim" | "cpu_to_pim_broadcast"
    total_bytes: float
    num_ranks: int
    time_s: float


class DdrChannel:
    """Timing model of one DDR channel shared by all ranks of a channel."""

    def __init__(
        self,
        host_links: HostLinkConfig,
        host: HostConfig,
        ideal: bool = False,
    ) -> None:
        self.host_links = host_links
        self.host = host
        self.ideal = ideal

    def _overhead(self, num_ranks: int) -> float:
        if self.ideal:
            return 0.0
        return (
            self.host.transfer_setup_overhead_s
            + num_ranks * self.host.per_rank_transfer_overhead_s
        )

    def pim_to_cpu(self, total_bytes: float, num_ranks: int = 1) -> ChannelTransfer:
        """Gather ``total_bytes`` from PIM banks to the host over this channel."""
        if num_ranks < 1:
            raise MemoryModelError("transfer must involve at least one rank")
        time_s = transfer_time(
            total_bytes, self.host_links.pim_to_cpu_bytes_per_s
        ) + self._overhead(num_ranks)
        return ChannelTransfer("pim_to_cpu", total_bytes, num_ranks, time_s)

    def cpu_to_pim(self, total_bytes: float, num_ranks: int = 1) -> ChannelTransfer:
        """Scatter ``total_bytes`` of distinct data from host to PIM banks."""
        if num_ranks < 1:
            raise MemoryModelError("transfer must involve at least one rank")
        time_s = transfer_time(
            total_bytes, self.host_links.cpu_to_pim_bytes_per_s
        ) + self._overhead(num_ranks)
        return ChannelTransfer("cpu_to_pim", total_bytes, num_ranks, time_s)

    def cpu_to_pim_broadcast(
        self, payload_bytes: float, num_ranks: int = 1
    ) -> ChannelTransfer:
        """Broadcast the *same* ``payload_bytes`` to all banks of the channel.

        UPMEM's parallel broadcast achieves a higher effective rate
        (16.88 GB/s) because one bus transfer feeds every rank.
        """
        if num_ranks < 1:
            raise MemoryModelError("transfer must involve at least one rank")
        time_s = transfer_time(
            payload_bytes, self.host_links.cpu_to_pim_broadcast_bytes_per_s
        ) + self._overhead(num_ranks)
        return ChannelTransfer(
            "cpu_to_pim_broadcast", payload_bytes, num_ranks, time_s
        )
