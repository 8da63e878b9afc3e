"""MLP: tensor-parallel fully connected layers (Table VII).

Three square layers (256, 512, 1024 neurons) with 32-bit weights, so the
multiply is software-emulated — the reason the paper's MLP sees only a
modest end-to-end speedup (compute dominates).  Each layer's activations
are combined with an AllReduce (tensor parallelism keeps weights
column-sliced per DPU).
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
class MlpWorkload(Workload):
    """3-layer MLP with AllReduce after every layer."""

    layer_sizes: tuple[int, ...] = (256, 512, 1024)
    #: Fraction of a layer's columns each DPU holds (tensor-parallel
    #: degree 32: the slice that fits WRAM alongside activations).
    cols_fraction: float = 1.0 / 32.0
    batch: int = 4

    name = "MLP"
    comm = "AR"

    def __post_init__(self) -> None:
        if not self.layer_sizes:
            raise WorkloadError("MLP needs at least one layer")
        if any(n < 1 for n in self.layer_sizes):
            raise WorkloadError("layer sizes must be positive")
        if not 0 < self.cols_fraction <= 1:
            raise WorkloadError("cols_fraction must be in (0, 1]")
        if self.batch < 1:
            raise WorkloadError("batch must be positive")

    def phases(self, machine: MachineConfig) -> list[WorkloadPhase]:
        phases: list[WorkloadPhase] = []
        for _ in range(self.batch):
            for n in self.layer_sizes:
                cols = max(1, int(n * self.cols_fraction))
                tile = n * cols
                work = OpCounts(
                    counts={
                        Op.LOAD: float(tile),
                        Op.INT_MUL: float(tile),   # emulated 32-bit multiply
                        Op.INT_ADD: float(tile),
                    },
                    mram_read_bytes=4.0 * tile,
                )
                phases.append(ComputePhase(work, name=f"layer-{n}"))
                phases.append(
                    CommPhase(
                        CollectiveRequest(
                            Collective.ALL_REDUCE,
                            payload_bytes=n * 4,
                            dtype=np.dtype(np.int32),
                        ),
                        name=f"activations-AR-{n}",
                    )
                )
        return phases


def distributed_mlp(
    weight_stack: list[np.ndarray],
    x: np.ndarray,
    backend: CollectiveBackend,
) -> np.ndarray:
    """Functional tensor-parallel MLP forward pass (integer, no bias).

    Each layer's weight matrix is (out, in) with ``in`` divisible by the
    DPU count; activations are AllReduced after every layer, so every
    DPU holds the full activation vector entering the next layer.
    A ReLU-like clamp keeps values positive between layers.
    """
    n = backend.num_dpus
    activation = x.astype(np.int64)
    for weights in weight_stack:
        out_dim, in_dim = weights.shape
        if in_dim % n != 0:
            raise WorkloadError(
                f"layer input {in_dim} not divisible by {n} DPUs"
            )
        if activation.shape != (in_dim,):
            raise WorkloadError("activation/layer shape mismatch")
        width = in_dim // n
        partials = []
        for d in range(n):
            lo = d * width
            partials.append(
                weights[:, lo : lo + width].astype(np.int64)
                @ activation[lo : lo + width]
            )
        request = CollectiveRequest(
            Collective.ALL_REDUCE, payload_bytes=out_dim * 8,
            dtype=np.dtype(np.int64),
        )
        result = backend.run(request, partials)
        assert result.outputs is not None
        activation = np.maximum(result.outputs[0], 0)
    return activation


def mlp_reference(weight_stack: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Single-node reference for :func:`distributed_mlp`."""
    activation = x.astype(np.int64)
    for weights in weight_stack:
        activation = np.maximum(weights.astype(np.int64) @ activation, 0)
    return activation
