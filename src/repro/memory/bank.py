"""One PIM bank's MRAM-to-WRAM DMA engine, as a staging-time model.

Mirrors the UPMEM organization (Section II-A): a 64 MB DRAM bank (MRAM)
holds the data the host sees; only data staged into the 64 KB scratchpad
(WRAM) is visible to the DPU datapath; a per-bank DMA engine moves data
between the two.
"""

from __future__ import annotations

import numpy as np

from ..config.system import DpuConfig
from ..config.units import transfer_time
from ..errors import MemoryModelError


class BankMemory:
    """Timing model of one PIM bank's DMA staging."""

    #: Maximum DMA burst supported by the UPMEM DMA engine.
    DMA_MAX_BYTES = 2048

    def __init__(
        self, config: DpuConfig, dma_bandwidth_bytes_per_s: float = 0.63e9
    ) -> None:
        if dma_bandwidth_bytes_per_s <= 0:
            raise MemoryModelError("DMA bandwidth must be positive")
        self.config = config
        self.dma_bandwidth_bytes_per_s = dma_bandwidth_bytes_per_s
        #: Fixed DMA setup latency per transfer (engine programming).
        self.dma_setup_s = 100e-9

    # -- DMA --------------------------------------------------------------------
    def _dma_time(self, length: int) -> float:
        bursts = -(-length // self.DMA_MAX_BYTES)  # ceil division
        return bursts * self.dma_setup_s + transfer_time(
            length, self.dma_bandwidth_bytes_per_s
        )

    # -- staging model for collectives -------------------------------------------
    def staging_time(self, payload_bytes: int, reserved_wram: int = 8192) -> float:
        """Extra MRAM<->WRAM time when a payload exceeds usable WRAM.

        Collective payloads that fit in WRAM incur no staging (the data is
        already resident for the kernel); larger payloads are streamed in
        chunks from MRAM and written back, costing a round trip over the
        DMA engine.  This is the "Mem" component of Fig 11.
        """
        if payload_bytes < 0:
            raise MemoryModelError("payload must be >= 0")
        usable = self.config.wram_bytes - reserved_wram
        if usable <= 0:
            raise MemoryModelError("reserved WRAM exceeds WRAM capacity")
        if payload_bytes <= usable:
            return 0.0
        overflow = payload_bytes - usable
        # Read the overflow in and write results back: two DMA passes.
        return 2 * self._dma_time(int(np.ceil(overflow / 8)) * 8)
