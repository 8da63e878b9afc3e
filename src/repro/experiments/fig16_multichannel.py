"""Fig 16: embedding-lookup performance with memory-channel scaling.

PIMnet's scope is one memory channel, so cross-channel combination still
crosses the host — but after a channel-wise PIMnet reduction only one
payload per channel reaches the CPU, while the baseline hauls every
DPU's partials up.  The host term therefore grows ~K times faster for
the baseline, and PIMnet's relative benefit increases with channels.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.patterns import Collective
from ..config.presets import MachineConfig
from ..config.units import transfer_time
from ..errors import ReproError
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from ..workloads import emb_synth
from ..workloads.base import CommPhase, ExecutionEngine
from .common import ExperimentTable

CHANNEL_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class MultiChannelResult:
    channel_counts: tuple[int, ...]
    baseline_s: tuple[float, ...]
    pimnet_s: tuple[float, ...]

    def speedups(self) -> tuple[float, ...]:
        return tuple(
            b / p for b, p in zip(self.baseline_s, self.pimnet_s)
        )


def _workload_payload_bytes(machine: MachineConfig) -> int:
    for phase in emb_synth().phases(machine):
        if isinstance(phase, CommPhase):
            if phase.request.pattern is not Collective.REDUCE_SCATTER:
                raise ReproError("EMB should communicate with RS")
            return phase.request.payload_bytes
    raise ReproError("EMB workload has no communication phase")


def _point(machine: MachineConfig, channels: int) -> dict[str, float]:
    """Per-batch time for Baseline and PIMnet at one channel count."""
    workload = emb_synth()
    payload = _workload_payload_bytes(machine)
    n = machine.system.banks_per_channel
    links = machine.host_links
    reduce_bw = machine.host.reduce_bandwidth_bytes_per_s

    base_b = ExecutionEngine(machine, "B").run(workload).total_s
    base_p = ExecutionEngine(machine, "P").run(workload).total_s

    # Baseline: per-channel gathers run on parallel buses; the host
    # reduction must chew through every channel's N partials.
    extra_host_reduce = (channels - 1) * n * payload / reduce_bw
    # PIMnet: per-channel reduction on the fabric; the host only
    # combines one payload per channel.
    cross = (
        transfer_time(payload, links.pim_to_cpu_bytes_per_s)
        + channels * payload / reduce_bw
        + transfer_time(
            payload, links.cpu_to_pim_broadcast_bytes_per_s
        )
    ) if channels > 1 else 0.0
    return {
        "baseline": base_b + extra_host_reduce,
        "pimnet": base_p + cross,
    }


def build_tables(result: MultiChannelResult) -> tuple[ExperimentTable, ...]:
    rows = tuple(
        (
            k,
            f"{b * 1e3:.3f}",
            f"{p * 1e3:.3f}",
            f"{b / p:.2f}x",
        )
        for k, b, p in zip(
            result.channel_counts, result.baseline_s, result.pimnet_s
        )
    )
    return (
        ExperimentTable(
            "Fig 16",
            "EMB_Synth with memory-channel scaling (per-batch time, ms)",
            ("channels", "Baseline ms", "PIMnet ms", "speedup"),
            rows,
            notes="paper: PIMnet speedup grows with channel count",
        ),
    )


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    return tuple(
        SweepPoint(i, {"channels": k})
        for i, k in enumerate(CHANNEL_COUNTS)
    )


def _assemble(
    machine: MachineConfig, values: tuple[dict[str, float], ...]
) -> MultiChannelResult:
    return MultiChannelResult(
        channel_counts=CHANNEL_COUNTS,
        baseline_s=tuple(v["baseline"] for v in values),
        pimnet_s=tuple(v["pimnet"] for v in values),
    )


SPEC = register_experiment(
    experiment_id="fig16",
    title="Fig 16: memory-channel scaling",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
