"""Collective-communication pattern definitions.

A :class:`CollectiveRequest` is the backend-independent description of one
collective: the pattern, the per-DPU payload, the element type, and the
reduction operator.  The *scope* of a request is always the full set of
DPUs of the machine it runs on; experiments that need smaller scopes
(e.g. the 8-to-256-DPU weak-scaling sweeps) run on machines resized with
:meth:`repro.config.PimSystemConfig.scaled_to_dpus`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import CollectiveError


class Collective(Enum):
    """The collective patterns of Table V (plus N-to-1 extensions)."""

    REDUCE_SCATTER = "reduce_scatter"
    ALL_GATHER = "all_gather"
    ALL_REDUCE = "all_reduce"
    ALL_TO_ALL = "all_to_all"
    BROADCAST = "broadcast"
    REDUCE = "reduce"
    GATHER = "gather"


#: Patterns whose execution involves a reduction operator.
REDUCING_PATTERNS = frozenset(
    {Collective.REDUCE_SCATTER, Collective.ALL_REDUCE, Collective.REDUCE}
)


class ReduceOp(Enum):
    """Element-wise reduction operators."""

    SUM = "sum"
    MAX = "max"
    MIN = "min"

    def apply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.MAX:
            return np.maximum(a, b)
        if self is ReduceOp.MIN:
            return np.minimum(a, b)
        raise CollectiveError(f"unknown reduce op {self}")  # pragma: no cover


@dataclass(frozen=True)
class CollectiveRequest:
    """One collective operation over all DPUs of a machine.

    ``payload_bytes`` is the number of bytes each DPU *contributes*:

    * ALL_REDUCE / REDUCE / BROADCAST: every DPU holds a full
      ``payload_bytes`` vector (result size equals input size).
    * REDUCE_SCATTER: input ``payload_bytes``, output ``payload_bytes / N``.
    * ALL_GATHER: input ``payload_bytes``, output ``payload_bytes * N``.
    * ALL_TO_ALL: input ``payload_bytes`` split into N chunks, output
      ``payload_bytes`` (chunk i of every peer).
    * GATHER: root receives ``payload_bytes * N``.
    """

    pattern: Collective
    payload_bytes: int
    dtype: np.dtype = np.dtype(np.int64)
    op: ReduceOp = ReduceOp.SUM
    root: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise CollectiveError("payload must be positive")
        dt = np.dtype(self.dtype)
        object.__setattr__(self, "dtype", dt)
        if self.payload_bytes % dt.itemsize != 0:
            raise CollectiveError(
                f"payload {self.payload_bytes} not a multiple of "
                f"element size {dt.itemsize}"
            )

    @property
    def num_elements(self) -> int:
        return self.payload_bytes // self.dtype.itemsize

    def summary(self) -> str:
        """Compact one-line description, for error context and traces."""
        parts = [f"{self.pattern.value} {self.payload_bytes}B/DPU"]
        parts.append(self.dtype.name)
        if self.pattern in REDUCING_PATTERNS:
            parts.append(f"op={self.op.value}")
        if self.pattern in (Collective.BROADCAST, Collective.REDUCE,
                            Collective.GATHER):
            parts.append(f"root={self.root}")
        return " ".join(parts)

    def validate_for(self, num_dpus: int) -> None:
        """Check the request is executable across ``num_dpus`` DPUs."""
        if num_dpus < 1:
            raise CollectiveError("need at least one DPU")
        if not 0 <= self.root < num_dpus:
            raise CollectiveError(
                f"root {self.root} out of range [0, {num_dpus})"
            )
        needs_sharding = self.pattern in (
            Collective.REDUCE_SCATTER,
            Collective.ALL_TO_ALL,
        )
        if needs_sharding and self.num_elements % num_dpus != 0:
            raise CollectiveError(
                f"{self.pattern.value} needs element count "
                f"{self.num_elements} divisible by {num_dpus} DPUs"
            )
