"""Links, shared media, and input-buffered router state.

The event-driven simulator loop drives these primitives:

* :class:`Link.start_traversal` returns the arrival cycle so the caller
  can feed an event heap instead of polling ``in_flight`` every cycle;
* ``in_flight`` is a deque ordered by arrival time (arrivals are
  scheduled monotonically because a link serializes flits), so
  :meth:`Link.deliver_arrivals` pops from the front instead of
  rebuilding the list;
* a link's FIFOs (``buffer`` and ``in_flight``) exist only while a run
  is live: :meth:`Link.reset` creates them and :meth:`Link.release`
  drops them, so a network built ahead of its run holds no deques;
* :class:`SharedMedium` tracks its member links and a round-robin grant
  pointer so bus arbitration rotates instead of statically favoring
  whichever link happens to come first in the network's link dict.

Links model the fault-free fabric only: a fault stretches or aborts a
statically scheduled collective as a whole, which
:mod:`repro.faults.engine` computes in closed form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import SimulationError


@dataclass(eq=False)
class SharedMedium:
    """A serialization resource shared by several links.

    Models the half-duplex multi-drop DDR bus: every link that crosses
    the bus (up or down, any rank pair) contends for the same medium.
    Links register themselves at construction; ``rr_index`` points at
    the member with the highest grant priority and advances past each
    grantee, giving the bus round-robin arbitration instead of the
    registration-order static priority it used to have.
    """

    name: str
    next_free_cycle: int = 0
    members: list = field(default_factory=list)
    rr_index: int = 0

    def register(self, link: "Link") -> None:
        self.members.append(link)

    def advance_after(self, link: "Link") -> None:
        """Move the grant pointer just past ``link`` (the cycle's grantee)."""
        self.rr_index = (self.members.index(link) + 1) % len(self.members)

    def reset(self) -> None:
        self.next_free_cycle = 0
        self.rr_index = 0


@dataclass(eq=False, slots=True)
class Link:
    """A directed channel between two routers with credit flow control.

    ``cycles_per_flit`` is the serialization interval (inverse
    bandwidth); ``latency_cycles`` is the pipeline latency to the
    downstream buffer; ``buffer_depth`` is the downstream input FIFO
    capacity, and ``credits`` counts the free slots the upstream side
    may still consume.  ``buffer`` and ``in_flight`` are ``None`` outside
    a run (between :meth:`release` and the next :meth:`reset`).
    """

    name: str
    src_router: str
    dst_router: str
    cycles_per_flit: int
    latency_cycles: int
    buffer_depth: int = 4
    medium: SharedMedium | None = None
    # -- simulation state --
    credits: int = field(init=False)
    next_free_cycle: int = field(init=False, default=0)
    buffer: deque | None = field(init=False, default=None)
    in_flight: deque | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.cycles_per_flit < 1:
            raise SimulationError(
                f"{self.name}: cycles_per_flit must be >= 1"
            )
        if self.latency_cycles < 0:
            raise SimulationError(f"{self.name}: negative latency")
        if self.buffer_depth < 1:
            raise SimulationError(f"{self.name}: need buffer depth >= 1")
        self.credits = self.buffer_depth
        if self.medium is not None:
            self.medium.register(self)

    # -- flow control -------------------------------------------------------
    def can_accept(self, now: int) -> bool:
        """Whether a flit may start traversing this link at ``now``."""
        if self.credits <= 0:
            return False
        if self.next_free_cycle > now:
            return False
        medium = self.medium
        return medium is None or medium.next_free_cycle <= now

    def start_traversal(self, flit, now: int) -> int:
        """Commit a flit to the wire; returns its arrival cycle."""
        if not self.can_accept(now):
            raise SimulationError(f"{self.name}: traversal without capacity")
        self.credits -= 1
        free = now + self.cycles_per_flit
        self.next_free_cycle = free
        if self.medium is not None:
            self.medium.next_free_cycle = free
        arrival = free + self.latency_cycles
        self.in_flight.append((arrival, flit))
        return arrival

    def deliver_arrivals(self, now: int) -> int:
        """Move flits whose arrival time has come into the input buffer.

        ``in_flight`` is ordered by arrival time (serialization makes
        traversal starts, hence arrivals, monotonic per link), so due
        flits sit at the front.  Returns how many flits were delivered.
        """
        moved = 0
        in_flight = self.in_flight
        while in_flight and in_flight[0][0] <= now:
            self.buffer.append(in_flight.popleft()[1])
            moved += 1
        return moved

    def return_credit(self) -> None:
        self.credits += 1
        if self.credits > self.buffer_depth:
            raise SimulationError(f"{self.name}: credit overflow")

    def reset(self) -> None:
        """Start a fresh run: full credits, an idle wire, empty FIFOs."""
        self.credits = self.buffer_depth
        self.next_free_cycle = 0
        self.buffer = deque()
        self.in_flight = deque()

    def release(self) -> None:
        """End a run: drop the FIFOs and any flits still in them."""
        self.buffer = None
        self.in_flight = None
