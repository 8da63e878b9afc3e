"""Address generation and traffic scheduling (the paper's Algorithm 1).

Because the host is not involved during PIMnet communication, every PIM
bank needs, ahead of time, (a) the local WRAM addresses of the data it
will send/combine in each phase and (b) a timing offset saying when the
phase may begin relative to the synchronized start.  Both depend only on
the collective pattern, the scope, and the topology — all known at
kernel-launch time — so the "compiler" (this module) resolves them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.patterns import Collective, CollectiveRequest
from ..errors import ScheduleError
from .schedule import Shape
from .timing import PimnetTimingModel, TierTimes


@dataclass(frozen=True)
class PhasePlan:
    """One bank's marching orders for one collective phase."""

    domain: str            # "bank" | "chip" | "rank"
    phase: str             # "RS" | "AG"
    start_offset_s: float  # delay after the synchronized start
    start_address: int     # element offset of the first segment sent
    segment_elements: int  # size of the segment sent per step


@dataclass(frozen=True)
class AllReducePlan:
    """Per-bank address/timing plan for a hierarchical AllReduce."""

    dpu: int
    phases: tuple[PhasePlan, ...]

    def phase(self, domain: str, phase: str) -> PhasePlan:
        for p in self.phases:
            if p.domain == domain and p.phase == phase:
                return p
        raise ScheduleError(f"no plan for domain={domain} phase={phase}")


class AllReduceAddressGenerator:
    """Implements Algorithm 1 for every bank in a scope.

    Phase durations (the T_RS/T_AG terms) come from the closed-form
    timing model; the AllReduce phase order is
    bank-RS, chip-RS, rank-RS, rank-AG, chip-AG, bank-AG.
    """

    def __init__(
        self,
        shape: Shape,
        num_elements: int,
        model: PimnetTimingModel,
        base_address: int = 0,
    ) -> None:
        if num_elements % shape.num_dpus != 0:
            raise ScheduleError(
                f"{num_elements} elements not divisible by "
                f"{shape.num_dpus} DPUs"
            )
        self.shape = shape
        self.num_elements = num_elements
        self.base_address = base_address
        itemsize = 8
        tiers: TierTimes = model._tier_times(
            CollectiveRequest(
                Collective.ALL_REDUCE, num_elements * itemsize
            )
        )
        # The AllReduce tier times cover RS+AG; each direction is half.
        self.t_rs_bank = tiers.bank_s / 2
        self.t_ag_bank = tiers.bank_s / 2
        self.t_rs_chip = tiers.chip_s / 2
        self.t_ag_chip = tiers.chip_s / 2
        # The bus RS leg carries (R-1)x the AG leg's data.
        ranks = shape.ranks
        if ranks > 1:
            self.t_rs_rank = tiers.rank_s * (ranks - 1) / ranks
            self.t_ag_rank = tiers.rank_s / ranks
        else:
            self.t_rs_rank = 0.0
            self.t_ag_rank = 0.0

    # -- Algorithm 1 -----------------------------------------------------------
    def plan(self, dpu: int) -> AllReducePlan:
        """Addresses and timing offsets for one bank (Algorithm 1)."""
        shape = self.shape
        rank, chip, bank = shape.coords(dpu)
        e = self.num_elements
        seg = e // shape.banks
        sub = seg // shape.chips
        subsub = sub // shape.ranks
        base = self.base_address
        phases: list[PhasePlan] = []

        # --- bank domain ------------------------------------------------------
        if shape.banks > 1:
            phases.append(
                PhasePlan(
                    domain="bank", phase="RS",
                    start_offset_s=0.0,
                    start_address=base + seg * ((bank - 1) % shape.banks),
                    segment_elements=seg,
                )
            )
            phases.append(
                PhasePlan(
                    domain="bank", phase="AG",
                    start_offset_s=(
                        self.t_rs_bank + self.t_rs_chip + self.t_rs_rank
                        + self.t_ag_rank + self.t_ag_chip
                    ),
                    start_address=base + seg * bank,
                    segment_elements=seg,
                )
            )

        # --- chip domain ------------------------------------------------------
        if shape.chips > 1:
            phases.append(
                PhasePlan(
                    domain="chip", phase="RS",
                    start_offset_s=self.t_rs_bank,
                    start_address=(
                        base + bank * seg + sub * ((chip - 1) % shape.chips)
                    ),
                    segment_elements=sub,
                )
            )
            phases.append(
                PhasePlan(
                    domain="chip", phase="AG",
                    start_offset_s=(
                        self.t_rs_bank + self.t_rs_chip + self.t_rs_rank
                        + self.t_ag_rank
                    ),
                    start_address=base + bank * seg + sub * chip,
                    segment_elements=sub,
                )
            )

        # --- rank domain ------------------------------------------------------
        if shape.ranks > 1:
            owned = base + bank * seg + chip * sub + rank * subsub
            phases.append(
                PhasePlan(
                    domain="rank", phase="RS",
                    start_offset_s=self.t_rs_bank + self.t_rs_chip,
                    start_address=(
                        base + bank * seg + chip * sub
                        + subsub * ((rank + 1) % shape.ranks)
                    ),
                    segment_elements=subsub,
                )
            )
            phases.append(
                PhasePlan(
                    domain="rank", phase="AG",
                    start_offset_s=(
                        self.t_rs_bank + self.t_rs_chip + self.t_rs_rank
                    ),
                    start_address=owned,
                    segment_elements=subsub,
                )
            )

        return AllReducePlan(dpu=dpu, phases=tuple(phases))
