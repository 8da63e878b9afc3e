"""Multi-tenancy bandwidth isolation (Fig 17).

Two tenants are spatially mapped onto disjoint rank subsets of one
channel.  With host-based communication both tenants' collectives share
the single host link, so each sees (at best) half the bandwidth plus
serialization; with PIMnet the inter-bank and inter-chip tiers are
physically private to each tenant's ranks — only the inter-rank bus is
shared — giving near-complete bandwidth isolation.

Beyond the aggregate slowdown pair, the analysis reports **per-tenant
request latency percentiles**: each repetition of a tenant's collective
phases under contention is one "request", its latency lands in the
shared :class:`~repro.observability.histo.LogBucketSketch` (and, when a
metrics registry is active, in the labeled
``tenant.request_latency_s{substrate=..., tenant=...}`` histogram
family), and the reported p50/p99 come straight out of that sketch —
the same percentile engine the fault campaigns and the metric
histograms use.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..collectives.backend import registry
from ..config.presets import MachineConfig, pimnet_sim_system
from ..config.network import HostLinkConfig
from ..errors import ConfigurationError
from ..observability import (
    LogBucketSketch,
    metric_histogram,
    metrics_active,
)
from ..workloads.base import CommPhase, ExecutionEngine, Workload


@dataclass(frozen=True)
class TenantResult:
    """One tenant's execution time in shared vs isolated settings."""

    workload: str
    backend: str
    alone_s: float
    shared_s: float

    @property
    def interference_slowdown(self) -> float:
        if self.alone_s <= 0:
            raise ConfigurationError(
                f"tenant {self.workload!r} ({self.backend}) reported "
                f"non-positive alone time {self.alone_s!r}; a broken run "
                "cannot be scored as 'no interference'"
            )
        return self.shared_s / self.alone_s


@dataclass(frozen=True)
class TenantLatencyStats:
    """Request-latency percentiles of one tenant under contention."""

    workload: str
    substrate: str
    requests: int
    p50_s: float
    p99_s: float


@dataclass(frozen=True)
class MultiTenancyResult:
    """Fig 17: both tenants under both communication substrates."""

    baseline: tuple[TenantResult, TenantResult]
    pimnet: tuple[TenantResult, TenantResult]
    #: Per-tenant request latency under contention, one entry per
    #: (substrate, tenant); percentiles come from the shared sketch.
    latency: tuple[TenantLatencyStats, ...] = field(default=())

    def isolation_benefit(self) -> float:
        """Geometric-mean slowdown ratio (baseline over PIMnet)."""
        for tenant in (*self.baseline, *self.pimnet):
            slowdown = tenant.interference_slowdown
            if slowdown <= 0:
                raise ConfigurationError(
                    f"tenant {tenant.workload!r} ({tenant.backend}) has "
                    f"non-positive slowdown {slowdown!r}; it cannot enter "
                    "the isolation geomean"
                )
        b = (
            self.baseline[0].interference_slowdown
            * self.baseline[1].interference_slowdown
        ) ** 0.5
        p = (
            self.pimnet[0].interference_slowdown
            * self.pimnet[1].interference_slowdown
        ) ** 0.5
        return b / p


def _tenant_machine(machine: MachineConfig, ranks: int) -> MachineConfig:
    """A tenant's slice: the same machine with only ``ranks`` ranks."""
    if ranks < 1 or ranks > machine.system.ranks_per_channel:
        raise ConfigurationError("tenant rank count out of range")
    return replace(
        machine,
        system=replace(machine.system, ranks_per_channel=ranks),
    )


def _with_host_share(machine: MachineConfig, share: float) -> MachineConfig:
    """Scale every host-link bandwidth by the tenant's fair share."""
    if not 0 < share <= 1:
        raise ConfigurationError("bandwidth share must be in (0, 1]")
    links = machine.host_links
    return replace(
        machine,
        host_links=HostLinkConfig(
            pim_to_cpu_bytes_per_s=links.pim_to_cpu_bytes_per_s * share,
            cpu_to_pim_bytes_per_s=links.cpu_to_pim_bytes_per_s * share,
            cpu_to_pim_broadcast_bytes_per_s=(
                links.cpu_to_pim_broadcast_bytes_per_s * share
            ),
            max_channel_bytes_per_s=links.max_channel_bytes_per_s * share,
        ),
    )


def _with_bus_share(machine: MachineConfig, share: float) -> MachineConfig:
    """Scale only the inter-rank bus bandwidth (PIMnet's shared tier)."""
    if not 0 < share <= 1:
        raise ConfigurationError("bandwidth share must be in (0, 1]")
    pimnet = machine.pimnet
    return replace(
        machine,
        pimnet=replace(
            pimnet,
            inter_rank=replace(
                pimnet.inter_rank,
                bandwidth_per_channel_bytes_per_s=(
                    pimnet.inter_rank.bandwidth_per_channel_bytes_per_s
                    * share
                ),
            ),
        ),
    )


_SUBSTRATE_LABEL = {"B": "Baseline", "P": "PIMnet"}


def _tenant_request_stats(
    workload: Workload,
    shared_machine: MachineConfig,
    backend_key: str,
) -> TenantLatencyStats:
    """Time each collective repetition as one request; sketch the tail.

    Deterministic (the timing models are closed-form), so the reported
    p50/p99 are stable golden values; the point is that they flow
    through the same sketch a live serving layer would populate.
    """
    substrate = _SUBSTRATE_LABEL[backend_key]
    backend = registry.create(backend_key, shared_machine)
    sketch = LogBucketSketch()
    instrument = (
        metric_histogram(
            "tenant.request_latency_s",
            {"substrate": substrate, "tenant": workload.name},
        )
        if metrics_active()
        else None
    )
    for phase in workload.phases(shared_machine):
        if not isinstance(phase, CommPhase):
            continue
        latency_s = backend.timing(phase.request).total_s
        for _ in range(phase.repeat):
            sketch.observe(latency_s)
            if instrument is not None:
                instrument.observe(latency_s)
    if sketch.count == 0:
        raise ConfigurationError(
            f"workload {workload.name!r} produced no communication "
            f"requests under {substrate}; refusing to report zero "
            "percentiles for an empty sketch"
        )
    p50 = sketch.quantile(50.0)
    p99 = sketch.quantile(99.0)
    assert p50 is not None and p99 is not None
    return TenantLatencyStats(
        workload=workload.name,
        substrate=substrate,
        requests=sketch.count,
        p50_s=p50,
        p99_s=p99,
    )


def run_multitenancy(
    tenant_a: Workload,
    tenant_b: Workload,
    machine: MachineConfig | None = None,
) -> MultiTenancyResult:
    """Fig 17: spatial mapping of two tenants on half a channel each."""
    machine = machine or pimnet_sim_system()
    half_ranks = max(1, machine.system.ranks_per_channel // 2)

    results: dict[str, list[TenantResult]] = {"B": [], "P": []}
    latency: list[TenantLatencyStats] = []
    for backend_key in ("B", "P"):
        for workload in (tenant_a, tenant_b):
            alone_machine = _tenant_machine(machine, half_ranks)
            if backend_key == "B":
                shared_machine = _with_host_share(alone_machine, 0.5)
            else:
                shared_machine = _with_bus_share(alone_machine, 0.5)
            alone = ExecutionEngine(alone_machine, backend_key).run(workload)
            shared = ExecutionEngine(shared_machine, backend_key).run(
                workload
            )
            results[backend_key].append(
                TenantResult(
                    workload=workload.name,
                    backend=backend_key,
                    alone_s=alone.total_s,
                    shared_s=shared.total_s,
                )
            )
            latency.append(
                _tenant_request_stats(workload, shared_machine, backend_key)
            )
    return MultiTenancyResult(
        baseline=tuple(results["B"]),
        pimnet=tuple(results["P"]),
        latency=tuple(latency),
    )
