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
fast-forwards between them, touching only routers that hold flits and
links that have pending arrivals.  Equivalence tests hold its output
byte-for-byte equal to an independent cycle-by-cycle oracle under
``tests/`` (see ``docs/NOC.md``).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

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


@dataclass
class _InjectionQueue:
    """Per-DPU NIC queue feeding the local stop."""

    flits: deque = field(default_factory=deque)


class _RunState:
    """Per-run mutable state of the event-driven loop and its helpers."""

    __slots__ = (
        "stats",
        "injection",
        "not_injected",
        "remaining",
        "links",
        "pos",
        "router_ports",
        "rr",
        "medium_base",
        "member_pos",
        "outstanding",
        "barrier_order",
        "msg_rank",
        "frontier",
        "req_count",
        "requested",
        "buffered",
        "inject_dirty",
        "ready_heap",
        "arb_heap",
        "arb_visited",
        "arb_cursor",
    )

    def __init__(self) -> None:
        self.stats = SimStats()
        self.injection: dict[int, _InjectionQueue] = {}
        self.not_injected: deque = deque()
        self.remaining = 0
        self.links: list[Link] = []
        self.pos: dict[Link, int] = {}
        self.router_ports: dict[str, list[tuple[str, object]]] = {}
        self.rr: dict[str, int] = {}
        self.medium_base: dict[SharedMedium, int] = {}
        self.member_pos: dict[Link, int] = {}
        self.outstanding: dict[int, int] = {}
        self.barrier_order: list[int] = []
        self.msg_rank: dict[int, int] = {}
        self.frontier = 0
        self.req_count: dict[Link, int] = {}
        self.requested: set[Link] = set()
        self.buffered: set[Link] = set()
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
            stats = self._run(max_cycles)
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
        state.links = links
        state.pos = {link: i for i, link in enumerate(links)}
        state.rr = {link.name: 0 for link in links}
        # Input ports per router, in stable construction order, with the
        # NIC as the final port of every stop router.  The round-robin
        # pointer of each output link indexes this fixed port list, so
        # it keeps meaning something when the set of *requesting* ports
        # changes from cycle to cycle.
        ports: dict[str, list[tuple[str, object]]] = {}
        for link in links:
            ports.setdefault(link.dst_router, []).append(("link", link))
            ports.setdefault(link.src_router, [])
        for router in ports:
            nic_dpu = self._nic_dpu(router)
            if nic_dpu >= 0:
                ports[router].append(("nic", nic_dpu))
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
    # Every head-of-queue flit (input buffer or NIC) holds exactly one
    # "request" on its next output link; the event loop arbitrates only
    # requested links.  A request appearing *during* switch allocation
    # (a grant or ejection reveals a new head) joins the in-flight
    # worklist if its position has not been passed yet — exactly the
    # links a loop that visits every link in arbitration order would
    # still reach this cycle.
    def _req_inc(self, state: _RunState, link: Link) -> None:
        count = state.req_count.get(link, 0)
        state.req_count[link] = count + 1
        if count == 0:
            state.requested.add(link)
            heap = state.arb_heap
            if heap is not None and link not in state.arb_visited:
                key = self._arb_sort_key(link, state)
                if key > state.arb_cursor:
                    heapq.heappush(heap, (key, state.pos[link], link))

    def _req_dec(self, state: _RunState, link: Link) -> None:
        count = state.req_count[link] - 1
        state.req_count[link] = count
        if count == 0:
            state.requested.discard(link)

    # -- shared per-cycle actions -------------------------------------------------------
    def _inject(self, message: Message, state: _RunState, now: int) -> None:
        message.inject_start_cycle = now
        path = self.network.path(message.src, message.dst)
        queue = state.injection.setdefault(message.src, _InjectionQueue())
        was_empty = not queue.flits
        for seq in range(message.num_flits):
            queue.flits.append(Flit(message=message, seq=seq, path=path))
        message.injected_flits = message.num_flits
        if was_empty:
            self._req_inc(state, queue.flits[0].next_link)

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
                head = link.buffer[0]
                if not head.at_destination:
                    self._req_inc(state, head.next_link)
            state.buffered.add(link)
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
        link.return_credit()
        if link.buffer:
            head = link.buffer[0]
            if not head.at_destination:
                self._req_inc(state, head.next_link)
        else:
            state.buffered.discard(link)
        self._account_delivery(flit, now, state)
        state.remaining -= 1

    def _try_grant(
        self, link: Link, state: _RunState, now: int
    ) -> int | None:
        """Step 4 for one output link: round-robin switch allocation.

        The pointer rotates over the router's *stable* port list (input
        links in construction order, NIC last): the grant goes to the
        first requesting port at or after the pointer, and the pointer
        advances just past the grantee — so a persistently backlogged
        port can neither be starved nor double-served when the set of
        requesting ports changes.  Returns the granted flit's arrival
        cycle, or None when no port requests this output.
        """
        ports = state.router_ports.get(link.src_router)
        if not ports:
            return None
        num_ports = len(ports)
        pointer = state.rr[link.name]
        chosen = -1
        requesting = 0
        for offset in range(num_ports):
            i = pointer + offset
            if i >= num_ports:
                i -= num_ports
            kind, obj = ports[i]
            if kind == "nic":
                queue = state.injection.get(obj)
                if queue is None or not queue.flits:
                    continue
                head = queue.flits[0]
                if head.next_link is not link:
                    continue
            else:
                buf = obj.buffer
                if not buf:
                    continue
                head = buf[0]
                if head.at_destination or head.next_link is not link:
                    continue
            requesting += 1
            if chosen < 0:
                chosen = i
        if chosen < 0:
            return None
        stats = state.stats
        if requesting > 1:
            stats.arbitration_conflicts += 1
        state.rr[link.name] = (chosen + 1) % num_ports
        kind, obj = ports[chosen]
        self._req_dec(state, link)
        if kind == "nic":
            queue = state.injection[obj]
            flit = queue.flits.popleft()
            if queue.flits:
                self._req_inc(state, queue.flits[0].next_link)
            port_label = "nic"
        else:
            flit = obj.buffer.popleft()
            obj.return_credit()
            if obj.buffer:
                head = obj.buffer[0]
                if not head.at_destination:
                    self._req_inc(state, head.next_link)
            else:
                state.buffered.discard(obj)
            port_label = obj.name
        flit.hop_index += 1
        flit.arrival_link = None
        arrival = link.start_traversal(flit, now)
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

            # 3. eject flits that reached their destination (head of FIFO)
            if state.buffered:
                for link in sorted(
                    state.buffered, key=state.pos.__getitem__
                ):
                    buf = link.buffer
                    if buf and buf[0].at_destination:
                        self._eject(link, state, now)
                        activity = True

            # 4. switch allocation over requested output links only,
            # visited in the global arbitration order (`_arb_sort_key`);
            # requests revealed mid-step join the worklist when their
            # position has not been passed yet.
            if state.requested:
                worklist: list[tuple[tuple[int, int], int, Link]] = [
                    (self._arb_sort_key(link, state), state.pos[link], link)
                    for link in state.requested
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
                        continue
                    arrival = self._try_grant(link, state, now)
                    if arrival is None:
                        continue
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
