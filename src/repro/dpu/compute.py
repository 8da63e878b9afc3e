"""Phase-level analytic compute model.

Workloads describe their per-DPU work as operation counts (an
:class:`OpCounts`); this module converts counts into issue slots via the
active :class:`~repro.config.compute.ComputeProfile` and into time via
the :class:`~repro.dpu.pipeline.PipelineModel`, adding MRAM streaming
time when the working set is streamed through WRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config.compute import ComputeProfile, Op
from ..config.system import DpuConfig
from ..config.units import transfer_time
from ..errors import WorkloadError
from .pipeline import PipelineModel


@dataclass(frozen=True)
class OpCounts:
    """Per-DPU operation counts for one compute phase."""

    counts: dict[Op, float] = field(default_factory=dict)
    #: Bytes streamed MRAM->WRAM (inputs) and WRAM->MRAM (outputs).
    mram_read_bytes: float = 0.0
    mram_write_bytes: float = 0.0

    def __post_init__(self) -> None:
        for op, count in self.counts.items():
            if count < 0:
                raise WorkloadError(f"negative count for {op}")
        if self.mram_read_bytes < 0 or self.mram_write_bytes < 0:
            raise WorkloadError("negative MRAM traffic")

    def merged(self, other: "OpCounts") -> "OpCounts":
        """Element-wise sum of two phases' counts."""
        counts = dict(self.counts)
        for op, count in other.counts.items():
            counts[op] = counts.get(op, 0.0) + count
        return OpCounts(
            counts=counts,
            mram_read_bytes=self.mram_read_bytes + other.mram_read_bytes,
            mram_write_bytes=self.mram_write_bytes + other.mram_write_bytes,
        )

    def scaled(self, factor: float) -> "OpCounts":
        """Counts multiplied by ``factor`` (e.g. per-iteration -> total)."""
        if factor < 0:
            raise WorkloadError("scale factor must be >= 0")
        return OpCounts(
            counts={op: c * factor for op, c in self.counts.items()},
            mram_read_bytes=self.mram_read_bytes * factor,
            mram_write_bytes=self.mram_write_bytes * factor,
        )


@dataclass(frozen=True)
class ComputeModel:
    """Converts :class:`OpCounts` into per-DPU execution time."""

    dpu: DpuConfig
    profile: ComputeProfile
    num_tasklets: int = 16
    dma_bandwidth_bytes_per_s: float = 0.63e9

    def __post_init__(self) -> None:
        if not 1 <= self.num_tasklets <= self.dpu.num_hw_tasklets:
            raise WorkloadError(
                f"tasklet count {self.num_tasklets} outside "
                f"[1, {self.dpu.num_hw_tasklets}]"
            )

    @property
    def pipeline(self) -> PipelineModel:
        return PipelineModel(self.dpu)

    def issue_slots(self, work: OpCounts) -> float:
        """Total pipeline issue slots for one phase's operation counts."""
        return sum(
            self.profile.slots(op, count) for op, count in work.counts.items()
        )

    def phase_time_s(self, work: OpCounts) -> float:
        """Per-DPU time for one compute phase.

        Pipeline time and MRAM streaming overlap only partially on real
        DPUs (DMA blocks the issuing tasklet); we take the max of the two
        plus a 10% coupling penalty on the smaller term, which matches the
        behaviour range reported by [39] for streaming kernels.
        """
        pipe = self.pipeline.time_for_slots(
            self.issue_slots(work), self.num_tasklets
        )
        dma = transfer_time(
            work.mram_read_bytes + work.mram_write_bytes,
            self.dma_bandwidth_bytes_per_s * self.profile.memory_scale,
        )
        return max(pipe, dma) + 0.1 * min(pipe, dma)

    def peak_ops_per_s(self) -> float:
        """Peak arithmetic throughput of one DPU (INT_ADD slots)."""
        per_op_slots = self.profile.slots(Op.INT_ADD, 1.0)
        return self.dpu.frequency_hz / per_op_slots
