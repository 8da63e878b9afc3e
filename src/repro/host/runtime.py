"""Host runtime: buffer management and host<->PIM data movement.

Models the host side of the UPMEM SDK (Fig 5(a)): the host allocates
named PIM buffers, pushes/pulls data over the DDR channel (functionally,
into each bank's MRAM model; timed, via the channel model), broadcasts
common data, and launches kernels.  The baseline collective backend is
the *timing* view of this machinery; this module is the *functional*
view, so tests can round-trip real bytes through the whole data path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.presets import MachineConfig
from ..errors import MemoryModelError, WorkloadError
from ..memory.bank import BankMemory
from ..memory.channel import DdrChannel
from ..topology.coordinates import Topology


@dataclass(frozen=True)
class PimBuffer:
    """A named per-DPU MRAM allocation (same offset on every bank)."""

    name: str
    mram_offset: int
    bytes_per_dpu: int


@dataclass
class HostEvent:
    """One timed host-side action, for execution traces."""

    kind: str      # "push" | "pull" | "broadcast" | "launch"
    detail: str
    time_s: float


class PimRuntime:
    """Functional host runtime over a machine's banks.

    Owns one :class:`~repro.memory.bank.BankMemory` per DPU and a DDR
    channel timing model; accumulates a host-side event trace whose
    total time mirrors what the baseline backend charges.
    """

    def __init__(self, machine: MachineConfig, ideal: bool = False) -> None:
        self.machine = machine
        self.topology = Topology(machine.system)
        self.banks: list[BankMemory] = [
            BankMemory(
                machine.system.dpu,
                dma_bandwidth_bytes_per_s=(
                    machine.pimnet.mram_wram_dma_bytes_per_s
                ),
            )
            for _ in range(machine.system.total_dpus)
        ]
        self.channel = DdrChannel(
            machine.host_links, machine.host, ideal=ideal
        )
        self.events: list[HostEvent] = []
        self._buffers: dict[str, PimBuffer] = {}
        self._next_offset = 0

    # -- allocation -------------------------------------------------------------
    def allocate(self, name: str, bytes_per_dpu: int) -> PimBuffer:
        """Reserve ``bytes_per_dpu`` of MRAM at the same offset everywhere."""
        if name in self._buffers:
            raise WorkloadError(f"buffer {name!r} already allocated")
        if bytes_per_dpu <= 0 or bytes_per_dpu % 8 != 0:
            raise MemoryModelError(
                "allocation must be a positive multiple of 8 bytes"
            )
        capacity = self.machine.system.dpu.mram_bytes
        if self._next_offset + bytes_per_dpu > capacity:
            raise MemoryModelError("MRAM exhausted")
        buffer = PimBuffer(name, self._next_offset, bytes_per_dpu)
        self._next_offset += bytes_per_dpu
        self._buffers[name] = buffer
        return buffer

    def buffer(self, name: str) -> PimBuffer:
        if name not in self._buffers:
            raise WorkloadError(f"unknown buffer {name!r}")
        return self._buffers[name]

    # -- data movement -----------------------------------------------------------
    def push(self, name: str, per_dpu_data: list[np.ndarray]) -> float:
        """Scatter distinct per-DPU arrays into the named buffer.

        Returns the modeled transfer time and records the event.
        """
        buffer = self.buffer(name)
        if len(per_dpu_data) != len(self.banks):
            raise WorkloadError(
                f"need {len(self.banks)} arrays, got {len(per_dpu_data)}"
            )
        total = 0
        for bank, data in zip(self.banks, per_dpu_data):
            raw = np.ascontiguousarray(data).view(np.uint8).ravel()
            if raw.size > buffer.bytes_per_dpu:
                raise MemoryModelError(
                    f"{raw.size} bytes exceed buffer {name!r} "
                    f"({buffer.bytes_per_dpu})"
                )
            bank.mram.write(buffer.mram_offset, raw)
            total += raw.size
        time_s = self.channel.cpu_to_pim(
            total, num_ranks=self.machine.system.ranks_per_channel
        ).time_s
        self.events.append(HostEvent("push", name, time_s))
        return time_s

    def broadcast(self, name: str, data: np.ndarray) -> float:
        """Write the same array into every bank's buffer (parallel mode)."""
        buffer = self.buffer(name)
        raw = np.ascontiguousarray(data).view(np.uint8).ravel()
        if raw.size > buffer.bytes_per_dpu:
            raise MemoryModelError("broadcast payload exceeds buffer")
        for bank in self.banks:
            bank.mram.write(buffer.mram_offset, raw)
        time_s = self.channel.cpu_to_pim_broadcast(
            raw.size, num_ranks=self.machine.system.ranks_per_channel
        ).time_s
        self.events.append(HostEvent("broadcast", name, time_s))
        return time_s

    def pull(
        self, name: str, count: int, dtype: np.dtype | type
    ) -> tuple[list[np.ndarray], float]:
        """Gather ``count`` elements of ``dtype`` from every bank."""
        buffer = self.buffer(name)
        dt = np.dtype(dtype)
        nbytes = count * dt.itemsize
        if nbytes > buffer.bytes_per_dpu:
            raise MemoryModelError("pull exceeds buffer size")
        arrays = [
            bank.mram.read_array(buffer.mram_offset, count, dt)
            for bank in self.banks
        ]
        time_s = self.channel.pim_to_cpu(
            nbytes * len(self.banks),
            num_ranks=self.machine.system.ranks_per_channel,
        ).time_s
        self.events.append(HostEvent("pull", name, time_s))
        return arrays, time_s

    # -- kernels -----------------------------------------------------------------
    def launch(self, description: str, per_dpu_time_s: float) -> float:
        """Record a kernel launch; DPUs run in parallel, so the cost is
        the launch overhead plus the slowest DPU's time."""
        if per_dpu_time_s < 0:
            raise WorkloadError("kernel time must be >= 0")
        time_s = (
            self.machine.host.kernel_launch_overhead_s + per_dpu_time_s
        )
        self.events.append(HostEvent("launch", description, time_s))
        return time_s

    # -- accounting ---------------------------------------------------------------
    @property
    def elapsed_s(self) -> float:
        """Total modeled wall-clock of all recorded host events."""
        return sum(e.time_s for e in self.events)

    def reset_trace(self) -> None:
        self.events.clear()
