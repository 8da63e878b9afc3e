"""A plain cycle-by-cycle oracle for ``NocSimulator.run``.

Written for clarity, not speed: every cycle visits every link, in the
four steps of the NoC model (``docs/NOC.md``):

1. inject every newly eligible message, in ``msg_id`` order, into its
   source stop's NIC queue (ready cycle reached, every dependency fully
   delivered, and in scheduled mode every earlier barrier drained);
2. land due in-flight flits in each link's downstream input FIFO;
3. eject at most one head flit per FIFO that has reached its stop;
4. switch allocation: each output link with a credit, a free wire and a
   free shared medium grants one head flit, round-robin over its
   router's stable port list (input links in construction order, NIC
   last). Plain links are visited in construction order; a shared
   medium's members are visited together, at its first member's place,
   starting from the member after the medium's last grantee.

The oracle shares no code and no state with ``repro.noc.simulator``. It
reads only the topology (``network.links``, each link's static fields
and shared medium, ``network.path``) and each message's static fields.
It keeps its own credits, FIFOs, in-flight queues, pointers and
counters, and never mutates a ``Link``, ``SharedMedium`` or ``Message``.
"""

from __future__ import annotations

from collections import deque

from repro.errors import SimulationError
from repro.noc import SimStats

NIC = "nic"  # port label of a stop's injection queue, as in grant logs


class _Flit:
    __slots__ = ("msg_id", "path", "hop")

    def __init__(self, msg_id: int, path: tuple[str, ...]) -> None:
        self.msg_id = msg_id
        self.path = path  # link names, source NIC to destination stop
        self.hop = 0  # index into ``path`` of the next link to take

    def wants(self, link_name: str) -> bool:
        return self.hop < len(self.path) and self.path[self.hop] == link_name

    @property
    def arrived(self) -> bool:
        return self.hop == len(self.path)


def simulate(network, messages, barriers=None, max_cycles=50_000_000):
    """Run ``messages`` over ``network``; returns the run's ``SimStats``.

    ``barriers`` maps message id to barrier index (scheduled mode) and
    ``None`` means credit mode. Grant logs are always recorded.
    """
    messages = sorted(messages, key=lambda m: m.msg_id)
    num_flits = {m.msg_id: m.num_flits for m in messages}
    stats = SimStats()

    # -- topology --------------------------------------------------------
    links = list(network.links.values())
    media: dict[object, list] = {}
    for link in links:
        if link.medium is not None:
            media.setdefault(link.medium, []).append(link)
    ports: dict[str, list[str]] = {}
    for link in links:
        ports.setdefault(link.dst_router, []).append(link.name)
    paths: dict[int, tuple[str, ...]] = {}
    source_router: dict[int, str] = {}
    for m in messages:
        route = network.path(m.src, m.dst)
        paths[m.msg_id] = tuple(link.name for link in route)
        source_router[m.msg_id] = route[0].src_router
    # A stop that sources no message gets no NIC port: an idle NIC never
    # requests, so it cannot change which port a pointer reaches first.
    for router in set(source_router.values()):
        ports.setdefault(router, []).append(NIC)

    # -- state -----------------------------------------------------------
    credits = {link.name: link.buffer_depth for link in links}
    wire_free = {link.name: 0 for link in links}
    fifo = {link.name: deque() for link in links}
    in_flight = {link.name: deque() for link in links}  # (arrival, flit)
    rr = {link.name: 0 for link in links}
    medium_free = {medium: 0 for medium in media}
    medium_next = {medium: 0 for medium in media}  # member index to favour
    nic: dict[str, deque] = {}
    waiting = list(messages)
    delivered = {m.msg_id: 0 for m in messages}
    started: dict[int, int] = {}
    outstanding: dict[int, int] = {}
    for msg_id, barrier in (barriers or {}).items():
        outstanding[barrier] = outstanding.get(barrier, 0) + num_flits[msg_id]
    remaining = sum(num_flits.values())

    def eligible(m, now: int) -> bool:
        if m.ready_cycle > now:
            return False
        if any(delivered[d] < num_flits[d] for d in m.deps):
            return False
        if barriers is None:
            return True
        mine = barriers.get(m.msg_id, 0)
        return all(left == 0 for b, left in outstanding.items() if b < mine)

    def allocation_order() -> list:
        order = []
        for link in links:
            medium = link.medium
            if medium is None:
                order.append(link)
            elif link is media[medium][0]:
                members = media[medium]
                k = medium_next[medium]
                order.extend(members[k:] + members[:k])
        return order

    def head(port: str, router: str):
        queue = nic.get(router) if port == NIC else fifo[port]
        return queue[0] if queue else None

    now = 0
    while remaining > 0:
        if now >= max_cycles:
            raise SimulationError(
                f"NoC simulation exceeded {max_cycles} cycles with "
                f"{remaining} flits outstanding"
            )

        # 1. injection
        for m in [m for m in waiting if eligible(m, now)]:
            waiting.remove(m)
            started[m.msg_id] = now
            queue = nic.setdefault(source_router[m.msg_id], deque())
            for _ in range(m.num_flits):
                queue.append(_Flit(m.msg_id, paths[m.msg_id]))

        # 2. delivery into input FIFOs
        for link in links:
            arriving = in_flight[link.name]
            moved = 0
            while arriving and arriving[0][0] <= now:
                fifo[link.name].append(arriving.popleft()[1])
                moved += 1
            if not moved:
                continue
            depth = len(fifo[link.name])
            stats.peak_buffer_occupancy = max(
                stats.peak_buffer_occupancy, depth
            )
            stats.link_peak_queue_flits[link.name] = max(
                stats.link_peak_queue_flits.get(link.name, 0), depth
            )

        # 3. ejection
        for link in links:
            queue = fifo[link.name]
            if not queue or not queue[0].arrived:
                continue
            flit = queue.popleft()
            credits[link.name] += 1
            remaining -= 1
            stats.flits_delivered += 1
            msg_id = flit.msg_id
            delivered[msg_id] += 1
            if barriers is not None and msg_id in barriers:
                outstanding[barriers[msg_id]] -= 1
            if delivered[msg_id] == num_flits[msg_id]:
                stats.per_message_latency[msg_id] = now - started[msg_id]

        # 4. switch allocation
        for link in allocation_order():
            name = link.name
            medium = link.medium
            if credits[name] == 0 or wire_free[name] > now:
                continue
            if medium is not None and medium_free[medium] > now:
                continue
            router_ports = ports.get(link.src_router, [])
            count = len(router_ports)
            requesting = []
            for offset in range(count):
                i = (rr[name] + offset) % count
                flit = head(router_ports[i], link.src_router)
                if flit is not None and flit.wants(name):
                    requesting.append(i)
            if not requesting:
                continue
            if len(requesting) > 1:
                stats.arbitration_conflicts += 1
            chosen = requesting[0]
            rr[name] = (chosen + 1) % count
            port = router_ports[chosen]
            if port == NIC:
                flit = nic[link.src_router].popleft()
            else:
                flit = fifo[port].popleft()
                credits[port] += 1
            flit.hop += 1
            credits[name] -= 1
            wire_free[name] = now + link.cycles_per_flit
            in_flight[name].append(
                (wire_free[name] + link.latency_cycles, flit)
            )
            stats.total_flit_hops += 1
            stats.link_busy_cycles[name] = (
                stats.link_busy_cycles.get(name, 0) + link.cycles_per_flit
            )
            stats.grant_log.setdefault(name, []).append(port)
            if medium is not None:
                medium_free[medium] = wire_free[name]
                members = media[medium]
                medium_next[medium] = (members.index(link) + 1) % len(members)
                stats.medium_grant_log.setdefault(medium.name, []).append(name)

        now += 1

    stats.cycles = now
    stats.events_processed = now
    stats.messages_delivered = sum(
        1 for m in messages if delivered[m.msg_id] == m.num_flits
    )
    return stats
