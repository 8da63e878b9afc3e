"""Lowering a :class:`FaultSet` onto the cycle-level NoC simulator.

The NoC hooks live in :mod:`repro.noc.links` (outage windows,
serialization factors, per-traversal corruption); this module translates
sampled fault events into per-link settings and applies/clears them on a
:class:`NocNetwork`.  Fail-stop faults are *not* lowered: PIMnet traffic
is statically scheduled, so a dead component does not slow the fabric
down — it makes the schedule infeasible, which
:func:`check_degraded_schedule` detects and the engine reports as an
abort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..config.faults import FaultModelConfig
from ..config.units import NOC_CYCLE_S
from ..core.schedule import CommSchedule
from ..errors import FaultError
from ..noc.network import NocNetwork
from .model import FaultSet, bank_name, chip_name


@dataclass(frozen=True)
class NocFaultPlan:
    """Concrete per-link perturbations for one NoC run.

    ``link_factors`` multiplies a link's serialization interval
    (degraded DQ pins); ``link_outages`` are half-open ``[start, end)``
    cycle windows during which a link refuses traversals;
    ``bus_stall_windows`` are the same, applied to the shared DDR-bus
    medium; the corruption fields configure every link's deterministic
    per-traversal CRC-failure coin.
    """

    link_factors: dict[str, int] = field(default_factory=dict)
    link_outages: dict[str, tuple] = field(default_factory=dict)
    bus_stall_windows: tuple = ()
    corruption_rate: float = 0.0
    retry_penalty_flits: int = 0
    corruption_salt: int = 0

    def __bool__(self) -> bool:
        return bool(
            self.link_factors
            or self.link_outages
            or self.bus_stall_windows
            or self.corruption_rate > 0.0
        )


def build_noc_fault_plan(
    fault_set: FaultSet,
    model: FaultModelConfig,
    seed: int = 0,
) -> NocFaultPlan:
    """Translate sampled fault events into a :class:`NocFaultPlan`.

    Degraded chip links slow both DQ directions of the chip; each bus
    stall becomes a stall window on the shared medium, placed
    deterministically (window ``i`` covers
    ``[(2i+1) * stall, (2i+2) * stall)`` cycles) so the run is a pure
    function of the fault set.  Fatal events are rejected — the caller
    must check :attr:`FaultSet.fatal` first.
    """
    if fault_set.fatal:
        raise FaultError(
            "fail-stop faults cannot be lowered onto the NoC: statically "
            "scheduled traffic cannot route around a dead component; "
            "check FaultSet.fatal and abort at the engine level instead"
        )
    factors: dict[str, int] = {}
    for chip, severity in fault_set.degraded_chip_links.items():
        _, r, c = chip.split(":")
        factor = max(1, math.ceil(severity))
        factors[f"dq:{r}:{c}:up"] = factor
        factors[f"dq:{r}:{c}:down"] = factor
    stall_cycles = max(1, round(model.rank_bus_stall_s / NOC_CYCLE_S))
    windows = tuple(
        ((2 * i + 1) * stall_cycles, (2 * i + 2) * stall_cycles)
        for i in range(fault_set.bus_stalls)
    )
    return NocFaultPlan(
        link_factors=factors,
        bus_stall_windows=windows,
        corruption_rate=model.flit_corruption_rate,
        retry_penalty_flits=model.retry_penalty_flits,
        corruption_salt=seed,
    )


def apply_noc_faults(network: NocNetwork, plan: NocFaultPlan) -> None:
    """Install ``plan`` on ``network``'s links and bus medium.

    Unknown link names are an error — a plan built for a different
    topology must fail loudly, not silently inject nothing.
    """
    for name in list(plan.link_factors) + list(plan.link_outages):
        if name not in network.links:
            raise FaultError(
                f"fault plan names link {name!r} which does not exist "
                "in this network topology"
            )
    for name, link in network.links.items():
        factor = plan.link_factors.get(name, 1)
        outages = plan.link_outages.get(name, ())
        rate = plan.corruption_rate
        if factor == 1 and not outages and rate == 0.0:
            link.clear_faults()
            continue
        link.configure_faults(
            outages=outages,
            fault_factor=factor,
            corruption_rate=rate,
            retry_cycles=plan.retry_penalty_flits * link.cycles_per_flit,
            corruption_salt=plan.corruption_salt,
        )
    network.bus_medium.stall_windows = plan.bus_stall_windows


def clear_noc_faults(network: NocNetwork) -> None:
    """Remove every fault setting; the network behaves as-built again."""
    for link in network.links.values():
        link.clear_faults()
    network.bus_medium.stall_windows = ()


def check_degraded_schedule(
    schedule: CommSchedule, fault_set: FaultSet
) -> tuple[str, ...]:
    """Why ``schedule`` is infeasible under ``fault_set``, if it is.

    A static schedule has no routing freedom: any transfer whose source
    or destination bank is dead, or that crosses the DQ pins of a chip
    whose link failed, can never happen.  Returns one human-readable
    violation per (component, phase) pair — empty means the schedule
    survives the fault set (possibly degraded, never wrong).
    """
    dead = set(fault_set.dead_banks)
    failed_chips = set(fault_set.failed_chip_links)
    if not dead and not failed_chips:
        return ()
    shape = schedule.shape
    violations: dict[str, None] = {}
    for phase in schedule.phases:
        for step in phase.steps:
            for t in step.transfers:
                r1, c1, b1 = shape.coords(t.src)
                r2, c2, b2 = shape.coords(t.dst)
                for r, c, b in ((r1, c1, b1), (r2, c2, b2)):
                    name = bank_name(r, c, b)
                    if name in dead:
                        violations[
                            f"{name} is fail-stopped but phase "
                            f"{phase.name!r} schedules a transfer on it"
                        ] = None
                crosses_chip = (r1, c1) != (r2, c2)
                if crosses_chip:
                    for r, c in ((r1, c1), (r2, c2)):
                        name = chip_name(r, c)
                        if name in failed_chips:
                            violations[
                                f"{name} lost its DQ link but phase "
                                f"{phase.name!r} schedules a transfer "
                                "across it"
                            ] = None
    return tuple(violations)
