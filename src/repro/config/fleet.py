"""Sharded-fleet configuration: N service shards plus outage plans.

A fleet (:mod:`repro.fleet`) fronts ``shards`` independent
:class:`~repro.service.CollectiveService` instances with a router that
assigns tenants to shards by rendezvous hashing and retries around
unhealthy shards.  :class:`ShardOutageConfig` describes a deterministic
mid-run outage: once the fleet-wide submission counter reaches
``after_submissions``, a fault set sampled from ``model`` (via
:mod:`repro.faults.model`) is injected into the named shard; a fatal
set takes the shard down, a non-fatal one degrades it.  With
``duration_submissions > 0`` the shard is revived (a fresh service on
the same machine) that many submissions later.

Everything here is eagerly validated, matching
:mod:`repro.config.service`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError
from .faults import FaultModelConfig
from .service import ServiceConfig, default_service_config
from .units import check_number

__all__ = [
    "FleetConfig",
    "ShardOutageConfig",
    "kill_shard_outage",
]


@dataclass(frozen=True)
class ShardOutageConfig:
    """One deterministic fault-injection window against one shard.

    The trigger is the *fleet* submission counter, not wall or simulated
    time, so an outage lands at the same request boundary on every run
    regardless of event-loop interleaving.
    """

    shard: int
    after_submissions: int
    #: 0 means the shard stays out for the rest of the run.
    duration_submissions: int = 0
    #: Sampled against the shard's machine; the all-banks fail-stop
    #: default makes the sampled set fatal, i.e. a hard kill.
    model: FaultModelConfig = field(
        default_factory=lambda: FaultModelConfig(bank_fail_stop_rate=1.0)
    )
    seed: int = 0
    targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_number(self.shard, "outage shard", ConfigurationError,
                     integer=True, at_least=0)
        for attr in ("after_submissions", "duration_submissions"):
            check_number(getattr(self, attr), f"outage {attr}",
                         ConfigurationError, integer=True, at_least=0)
        check_number(self.seed, "outage seed", ConfigurationError,
                     integer=True)
        object.__setattr__(
            self, "targets", tuple(str(t) for t in self.targets)
        )

    @property
    def revive_at(self) -> int | None:
        """Submission count at which the shard comes back (None = never)."""
        if self.duration_submissions == 0:
            return None
        return self.after_submissions + self.duration_submissions


@dataclass(frozen=True)
class FleetConfig:
    """N identical service shards behind the rendezvous router.

    ``max_reroutes`` bounds how many *additional* shards the router may
    try after the first choice rejects or goes down; the candidate list
    is the tenant's rendezvous ranking, so retry targets are as stable
    as the primary assignment.
    """

    shards: int = 3
    service: ServiceConfig = field(default_factory=default_service_config)
    max_reroutes: int = 2
    outages: tuple[ShardOutageConfig, ...] = ()

    def __post_init__(self) -> None:
        check_number(self.shards, "fleet shards", ConfigurationError,
                     integer=True, at_least=1)
        check_number(self.max_reroutes, "max_reroutes", ConfigurationError,
                     integer=True, at_least=0)
        outages = tuple(self.outages)
        for outage in outages:
            if outage.shard >= self.shards:
                raise ConfigurationError(
                    f"outage targets shard {outage.shard} but the fleet "
                    f"has only {self.shards} shard(s)"
                )
        if len({o.shard for o in outages}) != len(outages):
            raise ConfigurationError(
                "at most one outage plan per shard is supported"
            )
        object.__setattr__(
            self,
            "outages",
            tuple(sorted(outages, key=lambda o: (o.after_submissions,
                                                 o.shard))),
        )


def kill_shard_outage(
    shard: int,
    after_submissions: int,
    duration_submissions: int = 0,
    seed: int = 0,
) -> ShardOutageConfig:
    """A hard fail-stop outage (every bank dead => fatal fault set)."""
    return ShardOutageConfig(
        shard=shard,
        after_submissions=after_submissions,
        duration_submissions=duration_submissions,
        model=FaultModelConfig(bank_fail_stop_rate=1.0),
        seed=seed,
    )
