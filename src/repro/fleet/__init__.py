"""Sharded fleet: N service shards behind a fault-aware router.

The production-shape composition of the serving stack: requests shard
across N independent :class:`~repro.service.CollectiveService`
instances (each on its own simulated machine) by rendezvous hashing of
``(tenant, key)``; per-shard health (healthy / degraded / down) is
driven by deterministic :mod:`repro.faults` injection; on a rejection
or a shard outage the router retries along the tenant's stable shard
ranking — bounded retries, explicit outcomes, never a silent drop.
Per-shard metric registries fold into one fleet-wide view for SLO
evaluation and Prometheus export.  See ``docs/FLEET.md``.

Typical use::

    from repro.config import FleetConfig
    from repro.fleet import FleetRouter

    async with FleetRouter(FleetConfig(shards=3)) as fleet:
        response = await fleet.submit("tenant-a", request)
        assert response.outcome.value in (
            "admitted", "rerouted", "rejected", "failed",
        )
"""

from .health import HealthTracker, HealthTransition, ShardHealth, health_of
from .metrics import (
    FLEET_COUNTERS,
    LATENCY_METRIC,
    default_fleet_objectives,
    fold_registries,
    shard_label,
    tenant_latency_sketch,
)
from .router import (
    FleetOutcome,
    FleetResponse,
    FleetRouter,
    ShardHandle,
    fleet_assignment,
    home_shard,
    shard_ranking,
)

__all__ = [
    "FLEET_COUNTERS",
    "FleetOutcome",
    "FleetResponse",
    "FleetRouter",
    "HealthTracker",
    "HealthTransition",
    "LATENCY_METRIC",
    "ShardHandle",
    "ShardHealth",
    "default_fleet_objectives",
    "fleet_assignment",
    "fold_registries",
    "health_of",
    "home_shard",
    "shard_label",
    "shard_ranking",
    "tenant_latency_sketch",
]
