"""Optional flit-level NoC calibration of a cached structure.

The analytic profile rescales *exactly*; the cycle-level NoC simulator
does not — arbitration, per-hop pipelining, and flit quantization make
its cycle count a noisy affine-ish function of payload.  One calibration
run at the profile's base payload captures the empirical
``noc / analytic`` ratio; :meth:`NocCalibration.estimate_cycles` then
predicts the simulator's cycle count for other payloads as
``ratio * analytic_cycles``.

The estimate is only *served* while it stays inside the conformance
band (:meth:`ConformanceConfig.latency_band`).
Outside the band the cache refuses to extrapolate and falls back to a
fresh flit-level simulation — the band is the contract that rescaling
is still trustworthy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config.conformance import ConformanceConfig
from ..config.units import NOC_CYCLE_S
from ..core.schedule import CommSchedule, schedule_timing
from ..errors import SchedCacheError

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

    def estimate_cycles(self, analytic_cycles: float) -> float:
        """Predicted flit-sim cycles at another payload's analytic time."""
        return self.ratio * analytic_cycles

    def in_band(
        self, analytic_cycles: float, config: ConformanceConfig
    ) -> bool:
        """Whether the rescaled estimate is inside the conformance band."""
        lower, upper = config.latency_band(analytic_cycles)
        return lower <= self.estimate_cycles(analytic_cycles) <= upper

    def to_dict(self) -> dict:
        return {
            "base_elements": self.base_elements,
            "base_analytic_cycles": self.base_analytic_cycles,
            "base_noc_cycles": self.base_noc_cycles,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NocCalibration":
        try:
            return cls(
                base_elements=int(data["base_elements"]),
                base_analytic_cycles=float(data["base_analytic_cycles"]),
                base_noc_cycles=int(data["base_noc_cycles"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchedCacheError(
                f"malformed NoC calibration entry: {exc}"
            ) from exc


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
