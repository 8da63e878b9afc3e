"""Cycle-level NoC simulation loop.

A faithful (if compact) Booksim-style model: input-buffered routers,
credit-based flow control, round-robin switch allocation per output
link, round-robin grant rotation on shared media, deterministic
routing, and a shared half-duplex bus medium.

The same simulator runs both of Fig 13's configurations:

* **credit mode** — every message injects as soon as its data
  dependencies are satisfied and its source DPU has finished computing;
  contention is resolved dynamically by the credit/arbitration machinery.
* **scheduled (PIM-controlled) mode** — messages carry barrier indices;
  a barrier's messages inject only after every earlier barrier fully
  delivered (the WAIT semantics), and all sources start together after
  the READY/START synchronization.

The production loop (:meth:`NocSimulator.run`) is event-driven: it keeps
a min-heap of "interesting" cycles (message ready times, flit arrivals,
link/medium free times, plus the cycle after any state change) and
fast-forwards between them.  Its work scales with grants, not with
waiting requests: each link keeps the set of input ports whose head
requests it, only links that can take a flit are arbitrated (the rest
are parked until their wire and medium free up or a credit returns),
and only buffers whose head reached its stop are ejected.  Link FIFOs
exist only while a run is live.  Equivalence tests hold its output
byte-for-byte equal to an independent cycle-by-cycle oracle under
``tests/`` (see ``docs/NOC.md``, which also gives the exactness
argument for parking).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque

from ..errors import SimulationError
from ..observability import (
    metric_counter,
    metric_gauge,
    metric_histogram,
    metrics_active,
    trace_span,
)
from .flit import Flit, Message, SimStats
from .links import Link, SharedMedium
from .network import NocNetwork


class _RunState:
    """Per-run mutable state of the event-driven loop and its helpers."""

    __slots__ = (
        "stats",
        "injection",
        "not_injected",
        "remaining",
        "pos",
        "router_ports",
        "port_index",
        "rr",
        "medium_base",
        "member_pos",
        "outstanding",
        "barrier_order",
        "msg_rank",
        "frontier",
        "req_ports",
        "armed",
        "parked",
        "starved",
        "ejectable",
        "inject_dirty",
        "ready_heap",
        "arb_heap",
        "arb_visited",
        "arb_cursor",
    )

    def __init__(self) -> None:
        self.stats = SimStats()
        # DPU -> (its NIC queue, the NIC's port index at its stop)
        self.injection: dict[int, tuple[deque, int]] = {}
        self.not_injected: deque = deque()
        self.remaining = 0
        self.pos: dict[Link, int] = {}
        # router -> stable input ports: links, then the NIC queue if any
        self.router_ports: dict[str, list[Link | deque]] = {}
        self.port_index: dict[Link, int] = {}
        self.rr: dict[Link, int] = {}
        self.medium_base: dict[SharedMedium, int] = {}
        self.member_pos: dict[Link, int] = {}
        self.outstanding: dict[int, int] = {}
        self.barrier_order: list[int] = []
        self.msg_rank: dict[int, int] = {}
        self.frontier = 0
        # Requests: output link -> port indices whose head wants it.  A
        # requested link is in exactly one of ``armed`` (it could take a
        # flit when last checked), ``parked`` (a heap of (wake cycle,
        # pos, link) for a busy wire or medium) or ``starved`` (no
        # credit; a credit return wakes it).
        self.req_ports: dict[Link, set[int]] = {}
        self.armed: set[Link] = set()
        self.parked: list[tuple[int, int, Link]] = []
        self.starved: set[Link] = set()
        # Links whose head flit has reached its stop.
        self.ejectable: set[Link] = set()
        self.inject_dirty = False
        self.ready_heap: list[int] = []
        # Step-4 worklist (only live inside the event loop's allocation
        # step): a heap of (arb key, pos, link) still to visit this
        # cycle, the links already visited, and the current position.
        self.arb_heap: list | None = None
        self.arb_visited: set[Link] = set()
        self.arb_cursor: tuple[int, int] = (-1, -1)


class NocSimulator:
    """Runs a set of messages over a :class:`NocNetwork` to completion."""

    def __init__(
        self,
        network: NocNetwork,
        messages: list[Message],
        record_grants: bool = False,
    ) -> None:
        self.network = network
        self.messages = {m.msg_id: m for m in messages}
        if len(self.messages) != len(messages):
            raise SimulationError("duplicate message ids")
        for m in messages:
            if m.num_flits < 1:
                raise SimulationError(
                    f"message {m.msg_id} has {m.num_flits} flits; "
                    "zero-flit messages are rejected, not silently dropped"
                )
            for dep in m.deps:
                if dep == m.msg_id:
                    raise SimulationError(
                        f"message {m.msg_id} depends on itself"
                    )
                if dep not in self.messages:
                    raise SimulationError(
                        f"message {m.msg_id} depends on unknown "
                        f"message {dep}"
                    )
        self.use_barriers = False
        self.record_grants = record_grants
        self.barriers: dict[int, int] = {}
        self._message_barrier: dict[int, int] = {}

    def set_barriers(self, barriers: dict[int, int]) -> None:
        """Assign message -> barrier index (scheduled mode)."""
        self._message_barrier = dict(barriers)
        counts: dict[int, int] = {}
        for msg_id, barrier in self._message_barrier.items():
            if msg_id not in self.messages:
                raise SimulationError(f"barrier for unknown message {msg_id}")
            counts[barrier] = counts.get(barrier, 0) + 1
        self.barriers = counts
        self.use_barriers = True

    # -- injection gating ---------------------------------------------------------
    def _deps_satisfied(self, message: Message) -> bool:
        return all(self.messages[d].delivered for d in message.deps)

    def _barrier_open(self, message: Message, state: _RunState) -> bool:
        """All barriers strictly earlier than the message's have drained.

        ``state.frontier`` counts the leading fully-drained barriers in
        release order (``state.barrier_order``); a message is open when
        its precomputed rank lies within that drained prefix — an O(1)
        check instead of a scan over every barrier per message per cycle.
        """
        return state.msg_rank.get(message.msg_id, 0) <= state.frontier

    # -- run entry points ------------------------------------------------------------
    def run(self, max_cycles: int = 50_000_000) -> SimStats:
        """Simulate to completion; the cycle loop itself is in `_run`."""
        with trace_span(
            "noc/run",
            category="noc",
            num_messages=len(self.messages),
            scheduled=self.use_barriers,
        ) as span:
            try:
                stats = self._run(max_cycles)
            finally:
                self.network.release()
            span.set_attributes(
                cycles=stats.cycles,
                flits_delivered=stats.flits_delivered,
                arbitration_conflicts=stats.arbitration_conflicts,
                peak_buffer_occupancy=stats.peak_buffer_occupancy,
                events_processed=stats.events_processed,
                idle_cycles_skipped=stats.idle_cycles_skipped,
            )
            metric_counter("noc.cycles").inc(stats.cycles)
            metric_counter("noc.flits_delivered").inc(stats.flits_delivered)
            metric_counter("noc.flit_hops").inc(stats.total_flit_hops)
            metric_counter("noc.arbitration_conflicts").inc(
                stats.arbitration_conflicts
            )
            metric_counter("noc.events_processed").inc(
                stats.events_processed
            )
            metric_counter("noc.idle_cycles_skipped").inc(
                stats.idle_cycles_skipped
            )
            metric_gauge("noc.peak_buffer_occupancy").max(
                stats.peak_buffer_occupancy
            )
            if metrics_active():
                self._record_distributions(stats)
            return stats

    def _record_distributions(self, stats: SimStats) -> None:
        """Post-run distribution metrics, derived from the finished stats.

        Reading the stats object after the fact keeps the cycle loop
        untouched: per-link occupancy and per-message latency are
        already accumulated there, so histograms cost nothing on the
        hot path and the loop stays byte-identical with metrics on.
        """
        latency = metric_histogram("noc.message.latency_cycles")
        for cycles in stats.per_message_latency.values():
            latency.observe(cycles)
        utilization = metric_histogram("noc.link.utilization")
        for name, busy in stats.link_busy_cycles.items():
            metric_counter("noc.link.busy_cycles", {"link": name}).inc(
                busy
            )
            utilization.observe(stats.link_utilization(name))
        queue_depth = metric_histogram("noc.link.queue_depth_flits")
        for name, peak in stats.link_peak_queue_flits.items():
            queue_depth.observe(peak)
            metric_gauge(
                "noc.link.peak_queue_flits", {"link": name}
            ).max(peak)

    # -- shared setup -----------------------------------------------------------------
    def _prepare(self) -> _RunState:
        network = self.network
        network.reset()
        state = _RunState()
        pending = sorted(self.messages.values(), key=lambda m: m.msg_id)
        for m in pending:
            m.injected_flits = 0
            m.delivered_flits = 0
            m.inject_start_cycle = None
            m.complete_cycle = None
        state.not_injected = deque(pending)
        state.remaining = sum(m.num_flits for m in pending)

        state.outstanding = {
            b: 0 for b in set(self._message_barrier.values())
        }
        for msg_id, barrier in self._message_barrier.items():
            state.outstanding[barrier] += self.messages[msg_id].num_flits
        state.barrier_order = sorted(state.outstanding)
        state.frontier = 0
        if self.use_barriers:
            for m in pending:
                state.msg_rank[m.msg_id] = bisect_left(
                    state.barrier_order,
                    self._message_barrier.get(m.msg_id, 0),
                )

        links = list(network.links.values())
        state.pos = {link: i for i, link in enumerate(links)}
        state.rr = dict.fromkeys(links, 0)
        # Input ports per router, in stable construction order, with the
        # NIC as the final port of every stop router.  The round-robin
        # pointer of each output link indexes this fixed port list, so
        # it keeps meaning something when the set of *requesting* ports
        # changes from cycle to cycle.
        ports: dict[str, list[Link | deque]] = {}
        for link in links:
            inputs = ports.setdefault(link.dst_router, [])
            state.port_index[link] = len(inputs)
            inputs.append(link)
            ports.setdefault(link.src_router, [])
        for router, inputs in ports.items():
            nic_dpu = self._nic_dpu(router)
            if nic_dpu >= 0:
                queue: deque = deque()
                state.injection[nic_dpu] = (queue, len(inputs))
                inputs.append(queue)
        state.router_ports = ports
        # Arbitration ordering: plain links keep their stable position;
        # a shared medium's members are grouped at the position of the
        # medium's first member and ordered by its grant rotation.
        for link in links:
            medium = link.medium
            if medium is not None and medium not in state.medium_base:
                state.medium_base[medium] = state.pos[link]
        for medium in state.medium_base:
            for i, member in enumerate(medium.members):
                state.member_pos[member] = i
        return state

    def _arb_sort_key(self, link: Link, state: _RunState) -> tuple[int, int]:
        medium = link.medium
        if medium is None:
            return (state.pos[link], 0)
        rot = (state.member_pos[link] - medium.rr_index) % len(medium.members)
        return (state.medium_base[medium], rot)

    # -- request tracking ---------------------------------------------------------------
    # Every head-of-queue flit (input buffer or NIC) that has not reached
    # its stop holds one request, from its port, on its next output link.
    # A requested link waits in one of three places (see `_RunState`):
    # only `armed` links enter the step-4 worklist, so arbitration work
    # scales with the links that can move, not with waiting requests.
    def _req_add(
        self, state: _RunState, link: Link, port: int, now: int
    ) -> None:
        ports = state.req_ports.get(link)
        if ports is None:
            ports = state.req_ports[link] = set()
        newly_requested = not ports
        ports.add(port)
        if newly_requested:
            self._arm(state, link, now)

    def _arm(self, state: _RunState, link: Link, now: int) -> None:
        """File a requested link that is in no wait place yet.

        A link that can take a flit now joins ``armed``; during step 4
        it also joins the in-flight worklist if its position has not
        been passed yet, exactly the links a loop that visits every
        link in arbitration order would still grant this cycle.
        Within a cycle a wire's and a medium's free cycle only move
        later, so a credit return is the only thing that can make a
        link able to move mid-step.
        """
        if not link.can_accept(now):
            self._park(state, link)
            return
        state.armed.add(link)
        heap = state.arb_heap
        if heap is not None and link not in state.arb_visited:
            key = self._arb_sort_key(link, state)
            if key > state.arb_cursor:
                heapq.heappush(heap, (key, state.pos[link], link))

    def _park(self, state: _RunState, link: Link) -> None:
        """Put a requested link that cannot take a flit to sleep.

        Without a credit it waits for a credit return (`_credit_back`);
        otherwise its wire or medium is busy and it wakes at the later
        of their free cycles.  Both free cycles were pushed as events by
        the grant that set them, so a wake needs no event of its own.
        """
        if link.credits <= 0:
            state.starved.add(link)
            return
        wake = link.next_free_cycle
        medium = link.medium
        if medium is not None and medium.next_free_cycle > wake:
            wake = medium.next_free_cycle
        heapq.heappush(state.parked, (wake, state.pos[link], link))

    def _credit_back(self, state: _RunState, link: Link, now: int) -> None:
        """Return one credit to ``link``; wake it if it was starved."""
        link.return_credit()
        if link in state.starved:
            state.starved.discard(link)
            self._arm(state, link, now)

    def _new_head(self, state: _RunState, link: Link, now: int) -> None:
        """Register the head flit a delivery, ejection or grant revealed
        at the front of ``link``'s input buffer."""
        head = link.buffer[0]
        if head.at_destination:
            state.ejectable.add(link)
        else:
            state.ejectable.discard(link)
            self._req_add(state, head.next_link, state.port_index[link], now)

    # -- shared per-cycle actions -------------------------------------------------------
    def _inject(self, message: Message, state: _RunState, now: int) -> None:
        message.inject_start_cycle = now
        path = self.network.path(message.src, message.dst)
        queue, port = state.injection[message.src]
        was_empty = not queue
        for seq in range(message.num_flits):
            queue.append(Flit(message=message, seq=seq, path=path))
        message.injected_flits = message.num_flits
        if was_empty:
            self._req_add(state, queue[0].next_link, port, now)

    def _scan_injections(self, state: _RunState, now: int) -> bool:
        """Step 1: move newly eligible messages into their NIC queues."""
        injected = False
        still_waiting: deque = deque()
        not_injected = state.not_injected
        while not_injected:
            m = not_injected.popleft()
            eligible = (
                m.ready_cycle <= now
                and self._deps_satisfied(m)
                and (not self.use_barriers or self._barrier_open(m, state))
            )
            if not eligible:
                still_waiting.append(m)
                continue
            self._inject(m, state, now)
            injected = True
        state.not_injected = still_waiting
        return injected

    def _deliver(self, link: Link, state: _RunState, now: int) -> int:
        """Step 2 for one link: land due arrivals in its input buffer."""
        was_empty = not link.buffer
        moved = link.deliver_arrivals(now)
        if moved:
            if was_empty:
                self._new_head(state, link, now)
            occupancy = len(link.buffer)
            stats = state.stats
            if occupancy > stats.peak_buffer_occupancy:
                stats.peak_buffer_occupancy = occupancy
            if occupancy > stats.link_peak_queue_flits.get(link.name, 0):
                stats.link_peak_queue_flits[link.name] = occupancy
        return moved

    def _eject(self, link: Link, state: _RunState, now: int) -> None:
        """Step 3 for one link: pop a head flit that reached its stop."""
        flit = link.buffer.popleft()
        self._credit_back(state, link, now)
        if link.buffer:
            self._new_head(state, link, now)
        else:
            state.ejectable.discard(link)
        self._account_delivery(flit, now, state)
        state.remaining -= 1

    def _try_grant(self, link: Link, state: _RunState, now: int) -> int:
        """Step 4 for one armed output link: round-robin switch allocation.

        The pointer rotates over the router's *stable* port list (input
        links in construction order, NIC last): the grant goes to the
        first requesting port at or after the pointer, and the pointer
        advances just past the grantee — so a persistently backlogged
        port can neither be starved nor double-served when the set of
        requesting ports changes.  Returns the granted flit's arrival
        cycle.
        """
        requesting = state.req_ports[link]
        ports = state.router_ports[link.src_router]
        num_ports = len(ports)
        stats = state.stats
        if len(requesting) == 1:
            (chosen,) = requesting
        else:
            stats.arbitration_conflicts += 1
            pointer = state.rr[link]
            chosen = min(requesting, key=lambda i: (i - pointer) % num_ports)
        requesting.discard(chosen)
        state.rr[link] = (chosen + 1) % num_ports
        source = ports[chosen]
        from_nic = type(source) is deque
        flit = source.popleft() if from_nic else source.buffer.popleft()
        flit.hop_index += 1
        arrival = link.start_traversal(flit, now)
        state.armed.discard(link)
        if requesting:
            self._park(state, link)
        if from_nic:
            port_label = "nic"
            if source:
                self._req_add(state, source[0].next_link, chosen, now)
        else:
            port_label = source.name
            self._credit_back(state, source, now)
            if source.buffer:
                self._new_head(state, source, now)
        stats.total_flit_hops += 1
        stats.link_busy_cycles[link.name] = (
            stats.link_busy_cycles.get(link.name, 0) + link.cycles_per_flit
        )
        if self.record_grants:
            stats.grant_log.setdefault(link.name, []).append(port_label)
            if link.medium is not None:
                stats.medium_grant_log.setdefault(
                    link.medium.name, []
                ).append(link.name)
        if link.medium is not None:
            link.medium.advance_after(link)
        return arrival

    def _finalize(self, state: _RunState, cycles: int) -> SimStats:
        stats = state.stats
        stats.cycles = cycles
        stats.messages_delivered = sum(
            1 for m in self.messages.values() if m.delivered
        )
        return stats

    # -- event-driven main loop --------------------------------------------------------
    def _run(self, max_cycles: int) -> SimStats:
        state = self._prepare()
        stats = state.stats
        if state.remaining == 0:
            # An empty run is legal and well-defined: no cycles elapse,
            # nothing is delivered, and the stats come back clean.
            return self._finalize(state, 0)

        events: list[int] = [m.ready_cycle for m in state.not_injected]
        heapq.heapify(events)
        state.ready_heap = sorted(events)
        arrivals: list[tuple[int, int, Link]] = []
        armed = state.armed
        parked = state.parked
        ejectable = state.ejectable
        now = -1

        while state.remaining > 0:
            if not events:
                raise SimulationError(
                    f"NoC simulation deadlocked at cycle {now} with "
                    f"{state.remaining} flits outstanding and no pending "
                    "events — circular dependency or credit starvation"
                )
            nxt = heapq.heappop(events)
            while events and events[0] <= nxt:
                heapq.heappop(events)
            if nxt <= now:
                continue
            if nxt >= max_cycles:
                raise SimulationError(
                    f"NoC simulation exceeded {max_cycles} cycles with "
                    f"{state.remaining} flits outstanding — deadlock or "
                    "pathological contention"
                )
            stats.idle_cycles_skipped += nxt - now - 1
            now = nxt
            stats.events_processed += 1
            activity = False

            # 1. inject newly eligible messages into their NIC queues.
            # Eligibility only changes at ready times (heap events) or
            # after deliveries (deps/barriers), so the scan is gated.
            ready_heap = state.ready_heap
            while ready_heap and ready_heap[0] <= now:
                heapq.heappop(ready_heap)
                state.inject_dirty = True
            if state.inject_dirty:
                state.inject_dirty = False
                if state.not_injected and self._scan_injections(state, now):
                    activity = True

            # 2. deliver in-flight flits into downstream buffers
            while arrivals and arrivals[0][0] <= now:
                _, _, link = heapq.heappop(arrivals)
                if self._deliver(link, state, now):
                    activity = True

            # 3. eject the head flit of every buffer whose head reached
            # its stop, in link order
            if ejectable:
                for link in sorted(ejectable, key=state.pos.__getitem__):
                    self._eject(link, state, now)
                activity = True

            # 4. switch allocation over armed output links only, visited
            # in the global arbitration order (`_arb_sort_key`), after
            # waking the parked links whose wire and medium are free.
            while parked and parked[0][0] <= now:
                self._arm(state, heapq.heappop(parked)[2], now)
            if armed:
                worklist: list[tuple[tuple[int, int], int, Link]] = [
                    (self._arb_sort_key(link, state), state.pos[link], link)
                    for link in armed
                ]
                heapq.heapify(worklist)
                state.arb_heap = worklist
                visited = state.arb_visited
                while worklist:
                    key, _, link = heapq.heappop(worklist)
                    if link in visited:
                        continue
                    visited.add(link)
                    state.arb_cursor = key
                    if not link.can_accept(now):
                        # another member of its medium took the medium
                        armed.discard(link)
                        self._park(state, link)
                        continue
                    arrival = self._try_grant(link, state, now)
                    activity = True
                    heapq.heappush(events, link.next_free_cycle)
                    heapq.heappush(events, arrival)
                    heapq.heappush(
                        arrivals, (arrival, state.pos[link], link)
                    )
                state.arb_heap = None
                visited.clear()

            if activity:
                # State-driven follow-ups (a freed buffer slot, a new
                # head flit, a satisfied dependency) can fire next cycle.
                heapq.heappush(events, now + 1)

        return self._finalize(state, now + 1)

    # -- helpers -----------------------------------------------------------------------
    def _nic_dpu(self, router: str) -> int:
        """DPU id whose NIC feeds ``router`` (only stops have NICs)."""
        if not router.startswith("stop:"):
            return -1
        _, r, c, b = router.split(":")
        return self.network.shape.dpu(int(r), int(c), int(b))

    def _account_delivery(
        self, flit: Flit, now: int, state: _RunState
    ) -> None:
        message = flit.message
        message.delivered_flits += 1
        state.stats.flits_delivered += 1
        if self.use_barriers:
            # Only a barrier's own members drain it; a message without a
            # barrier entry gates as barrier 0 but drains nothing.
            barrier = self._message_barrier.get(message.msg_id)
            if barrier is not None:
                outstanding = state.outstanding
                outstanding[barrier] -= 1
                order = state.barrier_order
                while (
                    state.frontier < len(order)
                    and outstanding[order[state.frontier]] == 0
                ):
                    state.frontier += 1
                    state.inject_dirty = True
        if message.delivered:
            message.complete_cycle = now
            start = message.inject_start_cycle or 0
            state.stats.per_message_latency[message.msg_id] = now - start
            state.inject_dirty = True
