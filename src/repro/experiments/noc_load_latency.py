"""NoC load-latency study (supplementary).

The classic interconnection-network characterization: uniform-random
traffic injected at increasing offered load, mean message latency
measured in the cycle-level simulator.  At low load latency sits near
the zero-load bound; as offered load approaches the crossbar/bus
saturation point, credit back-pressure sends latency super-linear —
exactly the regime PIMnet's static scheduling is designed to avoid.

Sweeping many offered-load points is what the event-driven cycle loop
(see ``docs/NOC.md``) exists for; ``high_load_workload`` pins the
saturating point at which ``benchmarks/test_noc_sim.py`` times
:meth:`NocSimulator.run` against the cycle-by-cycle oracle in
``tests/noc_oracle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config.presets import MachineConfig
from ..core.schedule import Shape
from ..errors import SimulationError
from ..noc.flit import Message
from ..noc.network import NocNetwork
from ..noc.simulator import NocSimulator
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

INJECTION_RATES = (0.001, 0.005, 0.02, 0.1, 0.5)
DEFAULTS = {
    "banks": 2,
    "chips": 2,
    "ranks": 2,
    "messages_per_dpu": 10,
    "flits_per_message": 4,
    "seed": 5,
}


@dataclass(frozen=True)
class LoadLatencyResult:
    shape: Shape
    rates: tuple[float, ...]
    mean_latency_cycles: tuple[float, ...]
    completion_cycles: tuple[int, ...]

    def saturation_visible(self) -> bool:
        """Latency at the top rate well above the low-load latency."""
        return self.mean_latency_cycles[-1] > 2 * self.mean_latency_cycles[0]


def _traffic_pattern(
    shape: Shape, messages_per_dpu: int, seed: int
) -> list[tuple[int, int]]:
    """The fixed uniform-random (src, dst) pattern reused at every rate."""
    rng = np.random.default_rng(seed)
    n = shape.num_dpus
    pattern = []
    for src in range(n):
        for _ in range(messages_per_dpu):
            dst = int(rng.integers(0, n - 1))
            if dst >= src:
                dst += 1
            pattern.append((src, dst))
    return pattern


def build_point_workload(
    rate: float,
    banks: int,
    chips: int,
    ranks: int,
    messages_per_dpu: int,
    flits_per_message: int,
    seed: int,
) -> tuple[NocNetwork, list[Message]]:
    """The network and message list for one offered-load point.

    Shared between the registered sweep and ``benchmarks/test_noc_sim.py``,
    which times the event-driven loop against the cycle-by-cycle oracle
    in ``tests/noc_oracle.py`` on the same workload.
    """
    if rate <= 0:
        raise SimulationError("injection rate must be positive")
    shape = Shape(banks, chips, ranks)
    network = NocNetwork(shape)
    pattern = _traffic_pattern(shape, messages_per_dpu, seed)
    n = shape.num_dpus
    interval = max(1, math.ceil(100 / (rate * 100)))
    messages = []
    for msg_id, (src, dst) in enumerate(pattern):
        slot = msg_id // n
        messages.append(
            Message(
                msg_id=msg_id,
                src=src,
                dst=dst,
                num_flits=flits_per_message,
                ready_cycle=slot * interval,
            )
        )
    return network, messages


def high_load_workload(
    banks: int = 4,
    chips: int = 4,
    ranks: int = 2,
    messages_per_dpu: int = 8,
    flits_per_message: int = 4,
    seed: int = 5,
) -> tuple[NocNetwork, list[Message]]:
    """The saturating benchmark point: max sweep rate, larger fabric.

    Contention concentrates on the crossbars and the shared bus while
    most ring links idle — exactly the regime where the event-driven
    loop's active-router tracking pays off over the oracle's
    every-link-every-cycle scan.
    """
    return build_point_workload(
        rate=INJECTION_RATES[-1],
        banks=banks,
        chips=chips,
        ranks=ranks,
        messages_per_dpu=messages_per_dpu,
        flits_per_message=flits_per_message,
        seed=seed,
    )


def _point(
    machine: MachineConfig,
    rate: float,
    banks: int,
    chips: int,
    ranks: int,
    messages_per_dpu: int,
    flits_per_message: int,
    seed: int,
) -> dict[str, float | int]:
    """One injection rate in the cycle-level simulator; ``machine`` is
    not used (the NoC simulator is parameterized by shape).

    ``rate`` is messages per DPU per 100 cycles; arrival times are
    deterministic per seed so the sweep is reproducible.
    """
    network, messages = build_point_workload(
        rate, banks, chips, ranks, messages_per_dpu, flits_per_message, seed
    )
    stats = NocSimulator(network, messages).run()
    return {
        "mean_latency": float(stats.mean_message_latency),
        "cycles": int(stats.cycles),
    }


def build_tables(result: LoadLatencyResult) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (f"{rate:.3f}", f"{latency:.1f}", cycles)
        for rate, latency, cycles in zip(
            result.rates,
            result.mean_latency_cycles,
            result.completion_cycles,
        )
    )
    s = result.shape
    return (
        ExperimentTable(
            "NoC load-latency",
            "Uniform-random traffic under credit-based flow control",
            ("msgs/DPU/100cyc", "mean latency (cyc)", "completion (cyc)"),
            rows,
            notes=(
                f"{s.banks}x{s.chips}x{s.ranks} DPUs; latency climbs toward "
                "saturation — the contention regime static scheduling avoids"
            ),
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"rate": rate, **DEFAULTS})
        for i, rate in enumerate(INJECTION_RATES)
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict, ...]
) -> LoadLatencyResult:
    return LoadLatencyResult(
        shape=Shape(
            DEFAULTS["banks"], DEFAULTS["chips"], DEFAULTS["ranks"]
        ),
        rates=INJECTION_RATES,
        mean_latency_cycles=tuple(v["mean_latency"] for v in values),
        completion_cycles=tuple(v["cycles"] for v in values),
    )


SPEC = register_experiment(
    experiment_id="noc_load_latency",
    title="NoC load-latency study (cycle-level)",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
