"""Optional flit-level NoC calibration of a cached structure.

The analytic profile rescales *exactly*; the cycle-level NoC simulator
does not — arbitration, per-hop pipelining, and flit quantization make
its cycle count a noisy affine-ish function of payload.  One calibration
run at the profile's base payload captures the empirical
``noc / analytic`` ratio (:attr:`NocCalibration.ratio`).  Nothing serves
a rescaled estimate in place of a simulation: conformance runs the
simulator itself, so it checks the simulator and not an estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config.units import NOC_CYCLE_S
from ..core.schedule import CommSchedule, schedule_timing

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..config.network import PimnetNetworkConfig


@dataclass(frozen=True)
class NocCalibration:
    """One structure's measured flit-sim/analytic cycle ratio."""

    base_elements: int
    base_analytic_cycles: float
    base_noc_cycles: int

    @property
    def ratio(self) -> float:
        """Measured noc/analytic ratio; 1.0 when analytic time is zero
        (single-DPU structures with no scheduled transfers)."""
        if self.base_analytic_cycles <= 0.0:
            return 1.0
        return self.base_noc_cycles / self.base_analytic_cycles


def simulate_noc_cycles(
    schedule: CommSchedule,
    network: "PimnetNetworkConfig",
    itemsize: int = 8,
) -> int:
    """One fresh flit-level run of ``schedule`` (scheduled mode)."""
    from ..noc.network import NocNetwork
    from ..noc.simulator import NocSimulator
    from ..noc.workload import messages_from_schedule

    net = NocNetwork(schedule.shape, network=network)
    messages, barriers = messages_from_schedule(
        schedule, net, "scheduled", itemsize=itemsize
    )
    if not messages:
        return 0
    sim = NocSimulator(net, messages)
    if barriers:
        sim.set_barriers(barriers)
    return sim.run().cycles


def calibrate_schedule(
    schedule: CommSchedule,
    network: "PimnetNetworkConfig",
    itemsize: int = 8,
) -> NocCalibration:
    """Measure the structure's noc/analytic ratio at the base payload."""
    analytic_s = sum(
        schedule_timing(schedule, network, itemsize=itemsize).values()
    )
    cycles = simulate_noc_cycles(schedule, network, itemsize=itemsize)
    return NocCalibration(
        base_elements=schedule.num_elements,
        base_analytic_cycles=analytic_s / NOC_CYCLE_S,
        base_noc_cycles=cycles,
    )
