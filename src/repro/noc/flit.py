"""Flits and messages for the cycle-level NoC simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import SimulationError


@dataclass(slots=True)
class Message:
    """One logical transfer between two DPUs, segmented into flits.

    ``deps`` lists message ids that must be fully delivered before this
    message may inject (data dependencies of ring algorithms).
    ``ready_cycle`` is the earliest cycle the source may inject it
    (compute-finish time in credit mode; the scheduled start otherwise).
    """

    msg_id: int
    src: int
    dst: int
    num_flits: int
    ready_cycle: int = 0
    deps: tuple[int, ...] = ()
    # -- simulation state --
    delivered_flits: int = 0
    inject_start_cycle: int | None = None

    def __post_init__(self) -> None:
        if self.num_flits < 1:
            raise SimulationError("message needs at least one flit")
        if self.src == self.dst:
            raise SimulationError("self-messages never enter the network")

    @property
    def delivered(self) -> bool:
        return self.delivered_flits >= self.num_flits


@dataclass(slots=True)
class Flit:
    """One flow-control unit traversing a precomputed path.

    ``path`` is the sequence of links from source NIC to destination;
    ``hop_index`` points at the next link to take.
    """

    message: Message
    path: tuple["object", ...]
    hop_index: int = 0

    @property
    def at_destination(self) -> bool:
        return self.hop_index >= len(self.path)

    @property
    def next_link(self) -> "object":
        if self.at_destination:
            raise SimulationError("flit already at destination")
        return self.path[self.hop_index]


@dataclass
class SimStats:
    """Aggregate statistics of one NoC simulation run.

    ``events_processed`` counts the cycles whose state the simulator
    actually evaluated and ``idle_cycles_skipped`` the cycles it
    fast-forwarded over (``events_processed + idle_cycles_skipped ==
    cycles``).  ``grant_log`` /
    ``medium_grant_log`` record per-output-port and per-medium grant
    sequences, and are only populated when the simulator is constructed
    with ``record_grants=True`` (they exist for fairness tests).
    """

    cycles: int = 0
    flits_delivered: int = 0
    messages_delivered: int = 0
    total_flit_hops: int = 0
    peak_buffer_occupancy: int = 0
    arbitration_conflicts: int = 0
    events_processed: int = 0
    idle_cycles_skipped: int = 0
    per_message_latency: dict[int, int] = field(default_factory=dict)
    link_busy_cycles: dict[str, int] = field(default_factory=dict)
    #: input-buffer high-water mark per link, in flits (the per-link
    #: companion to the global ``peak_buffer_occupancy``)
    link_peak_queue_flits: dict[str, int] = field(default_factory=dict)
    #: output link name -> granted input port names, in grant order
    grant_log: dict[str, list[str]] = field(default_factory=dict)
    #: medium name -> granted member link names, in grant order
    medium_grant_log: dict[str, list[str]] = field(default_factory=dict)

    @property
    def mean_message_latency(self) -> float:
        if not self.per_message_latency:
            return 0.0
        return sum(self.per_message_latency.values()) / len(
            self.per_message_latency
        )

    def link_utilization(self, name: str) -> float:
        """Busy fraction of one link over the whole run."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, self.link_busy_cycles.get(name, 0) / self.cycles)
