"""Compute-throughput profiles for the PIM logic.

The UPMEM DPU has no native multiplier: 32-bit multiplies are emulated in
software (shift/add), which is why MLP and NTT are compute-bound in the
paper (Section VI-B).  HBM-PIM [59] and GDDR6-AiM [58] instead provide
hardware MAC units; Fig 15 models them by scaling compute throughput.

Costs are expressed in *issue slots* (pipeline-occupying instructions).
With >= 11 resident tasklets the DPU retires one slot per cycle, so a
cost of 32 means a 32-bit multiply occupies the pipeline for 32 cycles
spread across its emulation instruction sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..errors import ConfigurationError
from .units import check_number


class Op(Enum):
    """Abstract operation classes used by workload cost models."""

    INT_ADD = "int_add"
    INT_MUL = "int_mul"
    INT_MOD = "int_mod"
    FLOAT_ADD = "float_add"
    FLOAT_MUL = "float_mul"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    COMPARE = "compare"
    LOGIC = "logic"


#: Issue-slot costs of the UPMEM DPU (32-bit datapath, software-emulated
#: multiply/divide, software-emulated floating point).
UPMEM_OP_COSTS: dict[Op, float] = {
    Op.INT_ADD: 1.0,
    Op.INT_MUL: 32.0,
    Op.INT_MOD: 64.0,
    Op.FLOAT_ADD: 5.0,
    Op.FLOAT_MUL: 46.0,
    Op.LOAD: 1.0,
    Op.STORE: 1.0,
    Op.BRANCH: 1.0,
    Op.COMPARE: 1.0,
    Op.LOGIC: 1.0,
}


@dataclass(frozen=True)
class ComputeProfile:
    """Per-PIM-implementation compute model.

    ``throughput_scale`` multiplies the effective rate at which arithmetic
    operation slots retire, which is how Fig 15 models swapping the UPMEM
    DPU for PIM logic with hardware MACs while keeping the rest of the
    system identical.
    """

    name: str
    op_costs: dict[Op, float] = field(
        default_factory=lambda: dict(UPMEM_OP_COSTS)
    )
    throughput_scale: float = 1.0
    #: Internal bank-to-compute bandwidth relative to the UPMEM
    #: MRAM<->WRAM DMA; PIMs with hardware MACs also have much wider
    #: internal datapaths (HBM-PIM/AiM stream operands at bank width).
    memory_scale: float = 1.0

    def __post_init__(self) -> None:
        for name in ("throughput_scale", "memory_scale"):
            check_number(getattr(self, name), name, ConfigurationError,
                         above=0)
        missing = [op for op in Op if op not in self.op_costs]
        if missing:
            raise ConfigurationError(f"op_costs missing entries for {missing}")
        for op, cost in self.op_costs.items():
            check_number(cost, f"cost of {op.name}", ConfigurationError,
                         above=0)

    def slots(self, op: Op, count: float = 1.0) -> float:
        """Issue slots consumed by ``count`` operations of class ``op``."""
        if count < 0:
            raise ConfigurationError("operation count must be >= 0")
        return self.op_costs[op] * count / self.throughput_scale


def upmem_profile() -> ComputeProfile:
    """The baseline UPMEM DPU compute profile."""
    return ComputeProfile(name="UPMEM")


def hbm_pim_profile() -> ComputeProfile:
    """Samsung HBM-PIM (FIMDRAM): hardware FP16 MACs.

    The paper cites roughly two orders of magnitude higher arithmetic
    throughput than the UPMEM DPU for MAC-heavy kernels.
    """
    return ComputeProfile(name="HBM-PIM", throughput_scale=64.0, memory_scale=16.0)


def gddr6_aim_profile() -> ComputeProfile:
    """SK hynix GDDR6-AiM: ~180x UPMEM arithmetic throughput [39]."""
    return ComputeProfile(name="GDDR6-AiM", throughput_scale=180.0, memory_scale=32.0)


def next_gen_dpu_profile() -> ComputeProfile:
    """UPMEM's announced next-generation DPU with native FP (Section VI-B)."""
    return ComputeProfile(name="UPMEM-NG", throughput_scale=1000.0, memory_scale=16.0)


ALT_PIM_PROFILES: dict[str, ComputeProfile] = {
    "UPMEM": upmem_profile(),
    "HBM-PIM": hbm_pim_profile(),
    "GDDR6-AiM": gddr6_aim_profile(),
    "UPMEM-NG": next_gen_dpu_profile(),
}
