"""Fig 14: AllReduce performance over PIMnet channel-bandwidth sweeps.

(a) inter-bank channel bandwidth 0.1-1.0 GB/s (DIMM-Link as reference);
(b) inter-chip/inter-rank (global) bandwidth scaled around the default
with the inter-bank bandwidth fixed at 0.7 GB/s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from .common import ExperimentTable

INTER_BANK_SWEEP_GBS = (0.1, 0.2, 0.3, 0.5, 0.7, 1.0)
GLOBAL_SCALE_SWEEP = (0.25, 0.5, 1.0, 2.0)
DEFAULT_PAYLOAD_BYTES = 32 * 1024


@dataclass(frozen=True)
class BandwidthSweepResult:
    payload_bytes: int
    dimm_link_time_s: float
    #: (bandwidth GB/s, PIMnet AllReduce time, speedup vs DIMM-Link)
    inter_bank: tuple[tuple[float, float, float], ...]
    #: (global scale, PIMnet AllReduce time, speedup vs DIMM-Link)
    global_bw: tuple[tuple[float, float, float], ...]


def _point(
    machine: MachineConfig,
    sweep: str,
    value: float,
    payload_bytes: int,
) -> float:
    """AllReduce time at one sweep setting.

    ``sweep`` selects the knob: ``dimm_link`` (the reference backend,
    ``value`` ignored), ``inter_bank`` (channel bandwidth in GB/s), or
    ``global`` (inter-chip/inter-rank bandwidth scale).
    """
    request = CollectiveRequest(
        Collective.ALL_REDUCE, payload_bytes, dtype=np.dtype(np.int64)
    )
    if sweep == "dimm_link":
        return registry.create("D", machine).timing(request).total_s
    if sweep == "inter_bank":
        m = replace(
            machine, pimnet=machine.pimnet.with_inter_bank_bandwidth(value)
        )
    elif sweep == "global":
        m = replace(
            machine,
            pimnet=machine.pimnet.with_global_bandwidth_scale(value),
        )
    else:
        raise ValueError(f"unknown sweep {sweep!r}")
    return registry.create("P", m).timing(request).total_s


def build_tables(result: BandwidthSweepResult) -> tuple[ExperimentTable, ...]:
    rows_a = tuple(
        (f"{gbs:.1f}", f"{t * 1e6:.1f}", f"{s:.1f}x")
        for gbs, t, s in result.inter_bank
    )
    table_a = ExperimentTable(
        "Fig 14a",
        "AllReduce vs inter-bank channel bandwidth",
        ("inter-bank GB/s", "PIMnet us", "speedup vs DIMM-Link"),
        rows_a,
        notes=(
            f"DIMM-Link = {result.dimm_link_time_s * 1e6:.1f} us; paper: "
            ">=3x even at 0.1 GB/s (bandwidth parallelism)"
        ),
    )
    rows_b = tuple(
        (f"{scale:.2f}x", f"{t * 1e6:.1f}", f"{s:.1f}x")
        for scale, t, s in result.global_bw
    )
    table_b = ExperimentTable(
        "Fig 14b",
        "AllReduce vs inter-chip/inter-rank bandwidth scale",
        ("global BW scale", "PIMnet us", "speedup vs DIMM-Link"),
        rows_b,
        notes="inter-bank fixed at 0.7 GB/s",
    )
    return (table_a, table_b)


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    points = [
        SweepPoint(
            0,
            {
                "sweep": "dimm_link",
                "value": 0.0,
                "payload_bytes": DEFAULT_PAYLOAD_BYTES,
            },
        )
    ]
    for gbs in INTER_BANK_SWEEP_GBS:
        points.append(
            SweepPoint(
                len(points),
                {
                    "sweep": "inter_bank",
                    "value": gbs,
                    "payload_bytes": DEFAULT_PAYLOAD_BYTES,
                },
            )
        )
    for scale in GLOBAL_SCALE_SWEEP:
        points.append(
            SweepPoint(
                len(points),
                {
                    "sweep": "global",
                    "value": scale,
                    "payload_bytes": DEFAULT_PAYLOAD_BYTES,
                },
            )
        )
    return tuple(points)


def _assemble(
    machine: MachineConfig, values: tuple[float, ...]
) -> BandwidthSweepResult:
    dimm_link = values[0]
    nb = len(INTER_BANK_SWEEP_GBS)
    inter_bank = tuple(
        (gbs, t, dimm_link / t)
        for gbs, t in zip(INTER_BANK_SWEEP_GBS, values[1:1 + nb])
    )
    global_bw = tuple(
        (scale, t, dimm_link / t)
        for scale, t in zip(GLOBAL_SCALE_SWEEP, values[1 + nb:])
    )
    return BandwidthSweepResult(
        payload_bytes=DEFAULT_PAYLOAD_BYTES,
        dimm_link_time_s=dimm_link,
        inter_bank=inter_bank,
        global_bw=global_bw,
    )


SPEC = register_experiment(
    experiment_id="fig14",
    title="Fig 14: channel-bandwidth sweeps",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
