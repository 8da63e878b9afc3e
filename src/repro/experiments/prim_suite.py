"""PrIM workload tier: collective volumes, latency, and a served mix.

Three views of the PrIM/APSP tier on the paper's 256-DPU machine:

1. **Volume** — each workload's per-pattern collective payload bytes,
   cross-checked against its closed-form ``expected_comm_volume`` (the
   same invariant the differential harness enforces per cell);
2. **Latency** — per-backend execution time via the standard
   :func:`~repro.workloads.base.compare_backends` path (Fig 10 style);
3. **Service mix** — one request stream per PrIM workload, derived from
   its declared collective trace, driven through the async
   :class:`~repro.service.CollectiveService` so the new traces exercise
   the time-sliced admission path.

Every point is deterministic (seeded, simulated clock), so the suite is
golden-file tested across the serial / parallel / warm-cache /
schedule-cache paths like every other experiment.
"""

from __future__ import annotations

from dataclasses import replace

from ..config.presets import MachineConfig
from ..config.service import ServiceConfig, TimeSlotConfig
from ..errors import WorkloadError
from ..observability import MetricsRegistry, use_metrics
from ..runner.registry import register_experiment
from ..runner.spec import SweepPoint
from ..service import CollectiveService
from ..workloads import (
    ApspWorkload,
    Workload,
    compare_backends,
    prim_workloads,
)
from ..workloads.base import collective_volume, comm_trace
from .common import ExperimentTable
from .fig10_applications import app_from_jsonable, app_to_jsonable
from .tenant_service_load import (
    check_served,
    closed_loop,
    run_bounded,
    service_config,
)

BACKEND_ORDER = ("B", "S", "N", "D", "P")

#: Tier order: the five PrIM kernels, then the PIM-FW APSP workload.
WORKLOAD_KEYS = ("HST", "SCAN", "SEL", "BS", "TS", "APSP")

#: Trace repetitions per tenant in the served mix (HST's trace is one
#: AllReduce, BS's is a Broadcast + AllReduce pair, ...).
SERVICE_TRACE_REPEATS = 24

#: Closed-loop submissions kept outstanding per tenant.
SERVICE_CONCURRENCY = 4


def suite_workloads() -> dict[str, Workload]:
    """The PrIM tier plus APSP, paper-scale configurations."""
    workloads: dict[str, Workload] = dict(prim_workloads())
    workloads["APSP"] = ApspWorkload()
    return workloads


def _workload_point(machine: MachineConfig, workload: str) -> dict:
    wl = suite_workloads()[workload]
    volume = collective_volume(wl, machine)
    expected = wl.expected_comm_volume(machine)
    if volume != expected:
        raise WorkloadError(
            f"{workload}: phase-list volume {volume} != closed form "
            f"{expected}"
        )
    group = compare_backends(wl, machine, list(BACKEND_ORDER))
    return {
        "volume": volume,
        "collectives": len(comm_trace(wl, machine)),
        "apps": {key: app_to_jsonable(app) for key, app in group.items()},
    }


def _service_config() -> ServiceConfig:
    """The fig17 mix's cycle regrouped over the tier's four patterns:
    the reducing / one-to-all half (AR, BC) and the gathering half
    (AG, G)."""
    halves = (
        ("reduce-bcast", ("all_reduce", "broadcast")),
        ("gather", ("all_gather", "gather")),
    )
    return replace(service_config(), slots=tuple(
        TimeSlotConfig(name, patterns, time_window_s=500e-6,
                       max_multiplexing=2)
        for name, patterns in halves
    ))


def _service_point(machine: MachineConfig) -> dict:
    """Serve each PrIM workload's declared trace as a tenant stream."""
    streams = {}
    for key in WORKLOAD_KEYS[:-1]:  # the PrIM five; APSP is latency-only
        wl = suite_workloads()[key]
        one_pass = tuple(
            phase.request
            for phase in wl.phases(machine)
            if hasattr(phase, "request")
        )
        streams[key] = one_pass * SERVICE_TRACE_REPEATS

    async def serve() -> dict:
        async with CollectiveService(machine, _service_config()) as service:
            await closed_loop(service, streams, SERVICE_CONCURRENCY)
            return service.stats()

    with use_metrics(MetricsRegistry()):
        stats = run_bounded(serve(), None, WorkloadError, "prim_suite")
    check_served(stats, sum(map(len, streams.values())), WorkloadError)
    return {
        "submitted": stats["submitted"],
        "admitted": stats["admitted"],
        "rejected": stats["rejected"],
        "occurrences": stats["occurrences"],
        "tenants": {
            name: {
                "submitted": t["submitted"],
                "admitted": t["admitted"],
                "rejected": t["rejected"],
            }
            for name, t in sorted(stats["tenants"].items())
        },
    }


def _point(
    machine: MachineConfig, part: str, workload: str | None = None
) -> dict:
    if part == "workload":
        assert workload is not None
        return _workload_point(machine, workload)
    if part == "service":
        return _service_point(machine)
    raise WorkloadError(f"unknown prim_suite point kind {part!r}")


def _points(machine: MachineConfig) -> tuple[SweepPoint, ...]:
    points = [
        SweepPoint(i, {"part": "workload", "workload": key})
        for i, key in enumerate(WORKLOAD_KEYS)
    ]
    points.append(SweepPoint(len(points), {"part": "service"}))
    return tuple(points)


def build_tables(result: dict) -> tuple[ExperimentTable, ...]:
    volume_rows = []
    latency_rows = []
    for key in WORKLOAD_KEYS:
        point = result["workloads"][key]
        volume = point["volume"]
        volume_rows.append(
            (
                key,
                str(point["collectives"]),
                " ".join(
                    f"{pattern}:{volume[pattern]}"
                    for pattern in sorted(volume)
                ),
                str(sum(volume.values())),
            )
        )
        apps = {
            k: app_from_jsonable(encoded)
            for k, encoded in point["apps"].items()
        }
        base = apps["B"]
        latency_rows.append(
            (
                key,
                f"{100 * base.comm_fraction:.0f}%",
                *(
                    f"{apps[k].speedup_over(base):.2f}"
                    if k in apps
                    else "-"
                    for k in BACKEND_ORDER
                ),
            )
        )
    volume_table = ExperimentTable(
        "PrIM volume",
        "Per-workload collective volume (bytes per pattern)",
        ("workload", "collectives", "per-pattern bytes", "total bytes"),
        tuple(volume_rows),
        notes=(
            "phase-list totals equal each workload's closed-form "
            "expected_comm_volume (asserted per point)"
        ),
    )
    latency_table = ExperimentTable(
        "PrIM latency",
        "Speedup over Baseline PIM across backends",
        ("workload", "comm% (B)") + BACKEND_ORDER,
        tuple(latency_rows),
        notes="APSP is the PIM-FW broadcast stress case (BC+AG per round)",
    )
    service = result["service"]
    service_rows = tuple(
        (
            name,
            str(t["submitted"]),
            str(t["admitted"]),
            str(t["rejected"]),
        )
        for name, t in sorted(service["tenants"].items())
    )
    service_table = ExperimentTable(
        "PrIM service mix",
        "PrIM traces through the time-sliced collective service",
        ("tenant", "submitted", "admitted", "rejected"),
        service_rows,
        notes=(
            f"{service['submitted']} requests total: "
            f"{service['admitted']} admitted + "
            f"{service['rejected']} rejected (zero lost) across "
            f"{service['occurrences']} slot occurrences"
        ),
    )
    return (volume_table, latency_table, service_table)


def _assemble(machine: MachineConfig, values: tuple[dict, ...]) -> dict:
    return {
        "workloads": dict(zip(WORKLOAD_KEYS, values)),
        "service": values[len(WORKLOAD_KEYS)],
    }


SPEC = register_experiment(
    experiment_id="prim_suite",
    title="PrIM workload tier: volume, latency, served mix",
    points=_points,
    point_fn=_point,
    assemble=_assemble,
    build_tables=build_tables,
)
