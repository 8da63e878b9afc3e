"""Fig 17: multi-tenancy bandwidth isolation."""

from __future__ import annotations

from ..analysis.multitenancy import MultiTenancyResult, run_multitenancy
from ..config.presets import MachineConfig
from ..runner.registry import register_monolithic
from ..workloads import CcWorkload, emb_synth
from .common import ExperimentTable, default_machine


def run(machine: MachineConfig | None = None) -> MultiTenancyResult:
    """Two tenants: a graph workload and a recommendation workload."""
    machine = machine or default_machine()
    return run_multitenancy(CcWorkload(), emb_synth(), machine)


def build_tables(result: MultiTenancyResult) -> tuple[ExperimentTable, ...]:
    rows = []
    for label, pair in (("Baseline", result.baseline), ("PIMnet", result.pimnet)):
        for tenant in pair:
            rows.append(
                (
                    label,
                    tenant.workload,
                    f"{tenant.alone_s * 1e3:.3f}",
                    f"{tenant.shared_s * 1e3:.3f}",
                    f"{tenant.interference_slowdown:.2f}x",
                )
            )
    latency_rows = tuple(
        (
            stats.substrate,
            stats.workload,
            str(stats.requests),
            f"{stats.p50_s * 1e6:.1f}",
            f"{stats.p99_s * 1e6:.1f}",
        )
        for stats in result.latency
    )
    tables = [
        ExperimentTable(
            "Fig 17",
            "Spatially mapped tenants: interference slowdown",
            ("substrate", "tenant", "alone ms", "co-located ms", "slowdown"),
            tuple(rows),
            notes=(
                f"PIMnet isolation benefit: "
                f"{result.isolation_benefit():.2f}x "
                "lower interference (geomean)"
            ),
        ),
    ]
    if latency_rows:
        tables.append(
            ExperimentTable(
                "Fig 17b",
                "Per-tenant request latency under contention",
                ("substrate", "tenant", "requests", "p50 (us)", "p99 (us)"),
                latency_rows,
                notes=(
                    "per-request collective latency on the co-located "
                    "machine; percentiles from the shared log-bucket "
                    "sketch (repro.observability.histo)"
                ),
            )
        )
    return tuple(tables)


SPEC = register_monolithic(
    "fig17", "Fig 17: multi-tenancy isolation", run, build_tables
)
