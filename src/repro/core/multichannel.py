"""Multi-channel collective composition (Section VI-B, Fig 16).

PIMnet's scope is one memory channel; DPUs on different channels can
only communicate through the host.  This module composes channel-local
collectives with a host combining stage — the structure behind Fig 16 —
and also models the paper's future-work question ("can PIMnet be
extended to inter-memory-channel communication?") with a hypothetical
direct channel-bridge variant for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..collectives.result import CommBreakdown
from ..config.presets import MachineConfig
from ..config.units import transfer_time
from ..errors import BackendError, ConfigurationError


@dataclass(frozen=True)
class MultiChannelResultParts:
    """Timing of a cross-channel collective, by stage."""

    per_channel: CommBreakdown
    cross_channel_s: float

    @property
    def total_s(self) -> float:
        return self.per_channel.total_s + self.cross_channel_s


def _single_channel_machine(machine: MachineConfig) -> MachineConfig:
    return replace(
        machine, system=replace(machine.system, num_channels=1)
    )


def multichannel_collective(
    machine: MachineConfig,
    request: CollectiveRequest,
    backend_key: str = "P",
    bridge: str = "host",
) -> MultiChannelResultParts:
    """A collective spanning all channels of ``machine``.

    Channels run their local collective in parallel (on their private
    buses); the channel-level partial results are then combined across
    channels.  ``bridge`` selects the cross-channel path:

    * ``"host"`` — the realistic path: one payload per channel crosses
      to the CPU, is combined, and is broadcast back (what PIMnet must
      do today);
    * ``"direct"`` — a hypothetical inter-channel link at inter-rank bus
      bandwidth (the paper's open future-work question), used by the
      ablation benchmarks.
    """
    channels = machine.system.num_channels
    if channels < 1:
        raise ConfigurationError("machine needs at least one channel")
    if bridge not in ("host", "direct"):
        raise BackendError(f"unknown bridge {bridge!r}")

    local_machine = _single_channel_machine(machine)
    backend = registry.create(backend_key, local_machine)
    per_channel = backend.timing(request)
    if channels == 1:
        return MultiChannelResultParts(per_channel, 0.0)

    payload = request.payload_bytes
    reducing = request.pattern in (
        Collective.ALL_REDUCE,
        Collective.REDUCE_SCATTER,
        Collective.REDUCE,
    )
    if not reducing:
        # Non-reducing patterns move all channel data across the bridge.
        cross_bytes = payload * local_machine.system.banks_per_channel
    else:
        # After the channel-local reduction only one payload per channel
        # remains — the key Fig 16 asymmetry.
        cross_bytes = payload

    if bridge == "host":
        links = machine.host_links
        up = transfer_time(cross_bytes, links.pim_to_cpu_bytes_per_s)
        combine = transfer_time(
            channels * cross_bytes,
            machine.host.reduce_bandwidth_bytes_per_s,
        )
        down = transfer_time(
            cross_bytes, links.cpu_to_pim_broadcast_bytes_per_s
        )
        cross_s = up + combine + down
    else:
        bus = machine.pimnet.inter_rank.link_bandwidth_bytes_per_s
        # ring across channels over hypothetical links
        cross_s = 2 * transfer_time(
            cross_bytes * (channels - 1) / channels, bus
        )
    return MultiChannelResultParts(per_channel, cross_s)
