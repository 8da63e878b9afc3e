"""GEMV: tensor-parallel matrix-vector multiplication (Table VII).

The paper's configurations ("1024x64", "2048x128") are per-DPU weight
tiles: the weight matrix's columns are partitioned across DPUs (tensor
parallelism, as in PID-Comm), each DPU multiplies its tile against its
input slice, and a Reduce-Scatter combines the per-DPU partial output
vectors.  Weights are 8-bit quantized (UPMEM has a native 8x8 multiplier,
which is how real UPMEM GEMV kernels are written), accumulating in 32
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..collectives.backend import CollectiveBackend
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.compute import Op
from ..config.presets import MachineConfig
from ..dpu.compute import OpCounts
from ..errors import WorkloadError
from .base import CommPhase, ComputePhase, Workload, WorkloadPhase


@dataclass(frozen=True)
class GemvWorkload(Workload):
    """Quantized GEMV with column-partitioned weights and RS combine."""

    rows: int = 1024          # output length (partials reduced across DPUs)
    cols_per_dpu: int = 64    # weight-tile columns held by each DPU
    batch: int = 8            # input vectors processed back to back

    name = "GEMV"
    comm = "RS"

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols_per_dpu < 1 or self.batch < 1:
            raise WorkloadError("GEMV dimensions must be positive")

    def phases(self, machine: MachineConfig) -> list[WorkloadPhase]:
        tile = self.rows * self.cols_per_dpu
        # Per element: int8 load + hardware 8x8 multiply + 32-bit
        # accumulate; weights stream from MRAM once per batch item.
        work = OpCounts(
            counts={
                Op.LOAD: float(tile),
                Op.INT_ADD: 2.0 * tile,  # 8x8 mul (1 slot) + accumulate
            },
            mram_read_bytes=float(tile),
        )
        request = CollectiveRequest(
            Collective.REDUCE_SCATTER,
            payload_bytes=self.rows * 4,
            dtype=np.dtype(np.int32),
        )
        phases: list[WorkloadPhase] = []
        for _ in range(self.batch):
            phases.append(ComputePhase(work, name="gemv-tile"))
            phases.append(CommPhase(request, name="partial-RS"))
        return phases


def distributed_gemv(
    weights: np.ndarray,
    x: np.ndarray,
    backend: CollectiveBackend,
) -> np.ndarray:
    """Functional tensor-parallel GEMV through a collective backend.

    ``weights`` is (rows, cols) with cols divisible by the backend's DPU
    count; returns the full y = W @ x, reassembled from the
    Reduce-Scatter shards each DPU ends up owning.
    """
    n = backend.num_dpus
    rows, cols = weights.shape
    if cols % n != 0:
        raise WorkloadError(f"{cols} columns not divisible by {n} DPUs")
    if rows % n != 0:
        raise WorkloadError(
            f"{rows} rows not divisible by {n} DPUs (RS shards)"
        )
    if x.shape != (cols,):
        raise WorkloadError("input vector shape mismatch")
    slice_width = cols // n
    partials = []
    for d in range(n):
        lo = d * slice_width
        hi = lo + slice_width
        partials.append(
            (weights[:, lo:hi].astype(np.int64) @ x[lo:hi].astype(np.int64))
        )
    request = CollectiveRequest(
        Collective.REDUCE_SCATTER, payload_bytes=rows * 8,
        dtype=np.dtype(np.int64),
    )
    result = backend.run(request, partials)
    assert result.outputs is not None
    return np.concatenate(result.outputs)
