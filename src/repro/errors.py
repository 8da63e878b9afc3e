"""Exception hierarchy for the PIMnet reproduction library.

Every error raised by this package derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    #: Set once :meth:`with_context` has annotated the message, so
    #: layered handlers do not stack the same context repeatedly.
    _context_attached: bool = False

    def with_context(self, context: str) -> "ReproError":
        """This error with ``context`` appended to its message.

        Returns ``self`` unchanged if context was already attached;
        otherwise returns a new exception of the same type.  Backend
        timing paths use this so that an error surfacing from deep in a
        timing model still names the backend and request that hit it.
        """
        if self._context_attached:
            return self
        annotated = type(self)(f"{self} [{context}]")
        annotated._context_attached = True
        return annotated


class ConfigurationError(ReproError):
    """A system, network, or workload configuration is invalid."""


class TopologyError(ReproError):
    """A coordinate or neighbor computation fell outside the topology."""


class ScheduleError(ReproError):
    """A static communication schedule is infeasible or inconsistent."""


class CollectiveError(ReproError):
    """A collective operation was invoked with invalid arguments."""


class BackendError(ReproError):
    """A communication backend cannot execute the requested collective."""


class SimulationError(ReproError):
    """The discrete-event or cycle-level simulation reached a bad state."""


class WorkloadError(ReproError):
    """A workload was configured or partitioned inconsistently."""


class MemoryModelError(ReproError):
    """A memory access or DMA transfer violated the memory model."""


class IsaError(ReproError):
    """The DPU ISA interpreter hit an illegal instruction or operand."""


class ObservabilityError(ReproError):
    """The tracing or metrics layer was used inconsistently."""


class FaultError(ReproError):
    """The fault-injection engine reached an inconsistent state."""


class FaultConfigError(FaultError):
    """A fault model or campaign spec is invalid for the machine.

    Raised eagerly — when the spec is built or bound to a machine — so a
    campaign referencing components outside the topology fails before
    any sweep point runs, matching the eager-validation discipline of
    :class:`repro.experiments.common.ExperimentTable`.
    """


class ConformanceError(ReproError):
    """The cross-model conformance engine was misconfigured or misused.

    Raised for infeasible matrix points (a payload that does not divide
    the machine shape), malformed reproducer files, and mutations that
    have no applicable target — *not* for model disagreements, which are
    data (a failing point report), never exceptions.
    """


class RunnerError(ReproError):
    """The parallel experiment runner was misconfigured or misused."""


class PointExecutionError(RunnerError):
    """A sweep point failed or timed out.

    Carries the point's ``experiment_id`` and ``params`` so a failure
    deep inside a fanned-out sweep still names the exact configuration
    that hit it.
    """

    def __init__(
        self,
        message: str,
        *,
        experiment_id: str = "",
        params: dict | None = None,
    ) -> None:
        super().__init__(message)
        self.experiment_id = experiment_id
        self.params = dict(params) if params else {}


class ServiceError(ReproError):
    """The multi-tenant collective service was misconfigured or misused.

    Raised for invalid slot/quota configuration, submissions to a
    service that is not running, and lost-request accounting violations
    (``submitted != admitted + rejected + queued``).  Per-request
    admission failures are *not* exceptions — they come back as explicit
    ``Rejected`` responses with a reason, never silent drops.
    """


class FleetError(ReproError):
    """The sharded fleet router was misconfigured or lost a request.

    Raised for invalid fleet configuration (shard indices out of range,
    overlapping outage windows), submissions to a router that is not
    running, and fleet-level conservation violations (``submitted !=
    admitted + rerouted + rejected + failed``).  Per-request routing
    failures are *not* exceptions — they come back as explicit
    ``Rejected``/``Failed`` fleet responses with a reason, never silent
    drops.
    """


class SchedCacheError(ReproError):
    """The schedule-compilation cache was misused or hit a schedule it
    cannot profile (non-uniform step lengths).

    Cache *misses* and out-of-band rescaling are never errors — they
    fall back to fresh compilation; this is raised only for genuine
    misuse (invalid capacities, a replay at a payload the profile
    cannot rescale to)."""
