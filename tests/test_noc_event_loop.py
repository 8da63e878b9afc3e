"""Event-driven cycle loop vs an independent cycle-by-cycle oracle.

The production loop (:meth:`NocSimulator.run`) fast-forwards between
heap-scheduled events and only touches routers holding flits. The
oracle (``tests/noc_oracle.py``) steps every link every cycle with its
own credits, FIFOs, arbitration and counters, and shares no code with
the simulator. These tests pin their equivalence byte-for-byte —
including on randomized workloads with dependencies and barriers — plus
the precomputed barrier-release ordering and the empty/degenerate-run
contracts.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Shape
from repro.errors import SimulationError
from repro.noc import Message, NocNetwork, NocSimulator, SimStats

from .noc_oracle import simulate as oracle

#: Every statistic except the two that describe how a loop walks time.
COMPARED_FIELDS = tuple(
    f.name
    for f in dataclasses.fields(SimStats)
    if f.name not in ("events_processed", "idle_cycles_skipped")
)


def run_event_loop(network, messages, barriers=None, max_cycles=200_000):
    sim = NocSimulator(network, list(messages), record_grants=True)
    if barriers is not None:
        sim.set_barriers(barriers)
    return sim.run(max_cycles)


def assert_equivalent(network, messages, barriers=None):
    try:
        event = run_event_loop(network, messages, barriers)
        reference = oracle(network, messages, barriers, max_cycles=200_000)
    except SimulationError:
        # If one loop hits the guard (deadlock/max_cycles), both must.
        with pytest.raises(SimulationError):
            run_event_loop(network, messages, barriers)
        with pytest.raises(SimulationError):
            oracle(network, messages, barriers, max_cycles=200_000)
        return
    for name in COMPARED_FIELDS:
        assert getattr(event, name) == getattr(reference, name), name
    assert event.events_processed + event.idle_cycles_skipped == event.cycles
    assert reference.events_processed == reference.cycles


class TestEquivalenceDirected:
    def test_cross_rank_contention(self):
        shape = Shape(2, 2, 2)
        net = NocNetwork(shape)
        n = shape.num_dpus
        messages = [
            Message(msg_id=i, src=i % n, dst=(i * 3 + 1) % n or 1,
                    num_flits=3 + i % 4, ready_cycle=(i * 7) % 50)
            for i in range(20)
            if i % n != ((i * 3 + 1) % n or 1)
        ]
        assert_equivalent(net, messages)

    def test_dependency_chain(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=6),
            Message(msg_id=1, src=1, dst=2, num_flits=6, deps=(0,)),
            Message(msg_id=2, src=2, dst=3, num_flits=6, deps=(1,)),
            Message(msg_id=3, src=3, dst=0, num_flits=6, deps=(2,)),
        ]
        assert_equivalent(net, messages)

    def test_barriered_generations(self):
        shape = Shape(2, 2, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=i, src=i % 4, dst=(i + 1) % 4, num_flits=4)
            for i in range(8)
        ]
        barriers = {i: i // 4 for i in range(8)}
        assert_equivalent(net, messages, barriers)

    def test_transit_flit_behind_an_ejected_head(self):
        """One FIFO holds flits that end at its stop and flits that pass
        through it, and the transit flits wait for a contended output:
        ejecting a head must register the request of the transit flit
        it reveals."""
        shape = Shape(4, 2, 1)
        net = NocNetwork(shape)

        def bank(b, chip=0):
            return shape.dpu(0, chip, b)

        messages = [
            Message(msg_id=0, src=bank(0), dst=bank(2), num_flits=2,
                    ready_cycle=1),
            Message(msg_id=1, src=bank(0), dst=bank(2, chip=1), num_flits=4),
            Message(msg_id=2, src=bank(2), dst=bank(3), num_flits=4,
                    ready_cycle=2),
            Message(msg_id=3, src=bank(1), dst=bank(3), num_flits=5),
        ]
        assert_equivalent(net, messages)

    def test_bus_rotation_across_three_ranks(self):
        """Each rank sends to the next over the shared bus. The bus
        serializes a flit in one cycle, 16 times faster than the chip
        links that feed it, so its members contend only when flits reach
        different crossbars in the same cycle; the late third message
        makes that happen right after a grant, when the round-robin
        pointer (``SharedMedium.advance_after``, ``_arb_sort_key``)
        decides the winner."""
        shape = Shape(2, 1, 3)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=r, src=shape.dpu(r, 0, 0),
                    dst=shape.dpu((r + 1) % 3, 0, 1), num_flits=3,
                    ready_cycle=16 if r == 2 else 0)
            for r in range(3)
        ]
        assert_equivalent(net, messages)


class TestWakePaths:
    """Directed cases for the three ways a link that waits becomes
    able to move. Plain random workloads rarely take these paths at a
    moment where the timing shows, so each case is built to."""

    def test_credit_returned_mid_step_past_the_cursor(self):
        """Chip 1 of rank 0 and chip 0 of rank 1 both stream into chip 0
        of rank 0, so the crossbar output ``dq:0:0:down`` alternates
        between them and the crossbar FIFO behind ``dq:0:1:up`` fills:
        ``dq:0:1:up`` runs out of credits while chip 1 still holds flits
        for rank 1 (an uncontended route) and one late flit. When
        ``dq:0:0:down``, earlier in the arbitration order, takes a flit
        from that FIFO, the credit it returns lets ``dq:0:1:up`` send in
        the same cycle."""
        shape = Shape(1, 2, 2)
        net = NocNetwork(shape)
        chip1, rank1 = shape.dpu(0, 1, 0), shape.dpu(1, 0, 0)
        hot, far = shape.dpu(0, 0, 0), shape.dpu(1, 1, 0)
        messages = [
            Message(msg_id=0, src=chip1, dst=hot, num_flits=4),
            Message(msg_id=1, src=rank1, dst=hot, num_flits=3),
            Message(msg_id=2, src=chip1, dst=far, num_flits=3),
            Message(msg_id=3, src=chip1, dst=hot, num_flits=1,
                    ready_cycle=8),
        ]
        assert_equivalent(net, messages)

    def test_woken_bus_member_parks_again(self):
        """Each of three ranks sends to the next one over the shared
        bus, and their flits reach the three crossbars in the same
        cycle. One member takes the bus and the other two park until it
        frees; when they wake together, the member first in the bus
        rotation takes it again and the other must park once more."""
        shape = Shape(1, 1, 3)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=r, src=shape.dpu(r, 0, 0),
                    dst=shape.dpu((r + 1) % 3, 0, 0), num_flits=3)
            for r in range(3)
        ]
        assert_equivalent(net, messages)

    def test_grant_reveals_a_head_at_its_stop(self):
        """Stop 1's FIFO from bank 0 queues two-hop flits for bank 2
        ahead of a flit for bank 1 itself, and stop 1's own flits for
        bank 2 contend for the same output. When the last transit flit
        is granted, the flit behind it has reached its stop and must be
        ejected."""
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=2, num_flits=3),
            Message(msg_id=1, src=0, dst=1, num_flits=1),
            Message(msg_id=2, src=1, dst=2, num_flits=4),
        ]
        assert_equivalent(net, messages)


class TestPerRunFifos:
    def test_run_drops_link_fifos_on_return(self):
        net = NocNetwork(Shape(2, 2, 1))
        messages = [Message(msg_id=0, src=0, dst=3, num_flits=4)]
        NocSimulator(net, messages).run()
        assert all(
            link.buffer is None and link.in_flight is None
            for link in net.links.values()
        )

    def test_run_drops_link_fifos_on_error(self):
        net = NocNetwork(Shape(2, 2, 1))
        messages = [Message(msg_id=0, src=0, dst=3, num_flits=8)]
        with pytest.raises(SimulationError, match="exceeded"):
            NocSimulator(net, messages).run(max_cycles=20)
        assert all(
            link.buffer is None and link.in_flight is None
            for link in net.links.values()
        )


@st.composite
def random_workload(
    draw,
    banks=(1, 4),
    chips=(1, 2),
    ranks=(1, 2),
    messages=(1, 10),
    flits=(1, 5),
    ready=(0, 60),
):
    """A random workload; each keyword is an inclusive ``(low, high)``
    bound on what it names (``flits`` per message, ``ready`` cycle)."""
    shape = Shape(
        draw(st.integers(*banks)),
        draw(st.integers(*chips)),
        draw(st.integers(*ranks)),
    )
    n = shape.num_dpus
    if n < 2:
        shape = Shape(2, 1, 1)
        n = 2
    count = draw(st.integers(*messages))
    workload = []
    for msg_id in range(count):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 2))
        if dst >= src:
            dst += 1
        deps = ()
        if msg_id and draw(st.booleans()):
            deps = (draw(st.integers(0, msg_id - 1)),)
        workload.append(
            Message(
                msg_id=msg_id,
                src=src,
                dst=dst,
                num_flits=draw(st.integers(*flits)),
                ready_cycle=draw(st.integers(*ready)),
                deps=deps,
            )
        )
    use_barriers = draw(st.booleans())
    barriers = None
    if use_barriers:
        # Nondecreasing in msg_id, so deps (always to earlier ids)
        # never point into a later barrier generation.
        barriers = {m.msg_id: m.msg_id // 3 for m in workload}
    return shape, workload, barriers


@st.composite
def hot_chip_workload(draw, shape, messages=(12, 20), flits=(4, 10), ready=(0, 20)):
    """Traffic aimed at chip (0, 0) of ``shape`` from every other chip.

    Each message is one of three kinds: *in* (a bank off the hot chip
    to a bank on it, through the crossbar and, across ranks, the bus),
    *out* (the reverse, so both directions of each tier contend) or
    *ring* (a hot-chip bank to the bank one or two hops east of it).
    Only a ring FIFO can queue a flit that ends at its stop behind a
    transit flit: ``io:*:down`` FIFOs hold flits for their own stop
    only, and gateway, crossbar and bus FIFOs hold transit flits only.
    So the *ring* kind is what reaches the deep-queue ejection path,
    while the *in* and *out* kinds keep the chip and rank tiers busy
    around it.
    """
    hot = [shape.dpu(0, 0, b) for b in range(shape.banks)]
    cold = [d for d in range(shape.num_dpus) if d not in hot]
    workload = []
    for msg_id in range(draw(st.integers(*messages))):
        kind = draw(st.sampled_from(("in", "ring", "out")))
        if kind == "ring":
            b = draw(st.integers(0, shape.banks - 1))
            hops = draw(st.integers(1, 2))
            src, dst = hot[b], hot[(b + hops) % shape.banks]
        else:
            src = draw(st.sampled_from(cold))
            dst = draw(st.sampled_from(hot))
            if kind == "out":
                src, dst = dst, src
        workload.append(
            Message(
                msg_id=msg_id,
                src=src,
                dst=dst,
                num_flits=draw(st.integers(*flits)),
                ready_cycle=draw(st.integers(*ready)),
            )
        )
    return workload


@pytest.mark.slow
class TestEquivalenceRandomized:
    @settings(max_examples=50, deadline=None)
    @given(random_workload())
    def test_event_loop_matches_reference(self, workload):
        shape, messages, barriers = workload
        net = NocNetwork(shape)
        assert_equivalent(net, messages, barriers)

    @settings(max_examples=100, deadline=None)
    @given(
        random_workload(
            banks=(4, 4), chips=(1, 1), ranks=(1, 1),
            messages=(8, 12), flits=(4, 10), ready=(0, 20),
        )
    )
    def test_deep_queues_match_reference(self, workload):
        """Many long messages released close together on one 4-bank
        ring, the smallest ring with transit stops, so a FIFO often
        queues flits that end at its stop behind a transit flit that
        waits for a contended output. Lower bounds keep every example
        busy (Hypothesis favours the low end of a range)."""
        shape, messages, barriers = workload
        net = NocNetwork(shape)
        assert_equivalent(net, messages, barriers)

    @settings(max_examples=100, deadline=None)
    @given(hot_chip_workload(Shape(4, 2, 1)))
    def test_crossbar_hot_spot_matches_reference(self, messages):
        """Two chips of one rank: chip 1 floods chip 0's crossbar port
        while chip 0's ring carries transit traffic."""
        assert_equivalent(NocNetwork(Shape(4, 2, 1)), messages)

    @settings(max_examples=100, deadline=None)
    @given(hot_chip_workload(Shape(4, 1, 2)))
    def test_bus_hot_spot_matches_reference(self, messages):
        """Two ranks of one chip: rank 1 sends to rank 0 over the shared
        bus, rank 0 answers, and rank 0's ring carries transit traffic."""
        assert_equivalent(NocNetwork(Shape(4, 1, 2)), messages)


class TestBarrierReleaseOrdering:
    """The O(1) frontier over a precomputed release order must behave
    exactly like the old per-message scan over every barrier."""

    def test_noncontiguous_barrier_indices(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=4),
            Message(msg_id=1, src=1, dst=2, num_flits=4),
            Message(msg_id=2, src=2, dst=3, num_flits=4),
        ]
        sim = NocSimulator(net, messages)
        sim.set_barriers({0: 2, 1: 5, 2: 9})
        sim.run()
        assert messages[1].inject_start_cycle >= messages[0].complete_cycle
        assert messages[2].inject_start_cycle >= messages[1].complete_cycle

    def test_same_barrier_runs_concurrently(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=8),
            Message(msg_id=1, src=2, dst=3, num_flits=8),
        ]
        sim = NocSimulator(net, messages)
        sim.set_barriers({0: 1, 1: 1})
        sim.run()
        assert messages[0].inject_start_cycle == messages[1].inject_start_cycle

    def test_uncovered_message_defaults_to_barrier_zero(self):
        """A message without an explicit barrier injects immediately and
        contributes no outstanding count — it never gates later barriers
        (the original scan's semantics, preserved by the frontier)."""
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=8),
            Message(msg_id=1, src=1, dst=2, num_flits=2),
        ]
        sim = NocSimulator(net, messages)
        sim.set_barriers({1: 3})
        sim.run()
        assert messages[0].inject_start_cycle == 0
        assert messages[1].inject_start_cycle == 0

    def test_uncovered_message_does_not_drain_barrier_zero(self):
        """A message without a barrier entry gates as barrier 0 but is
        not one of its members, so its deliveries must not release the
        next barrier before barrier 0's own messages have drained."""
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=4),
            Message(msg_id=1, src=2, dst=3, num_flits=4, ready_cycle=40),
            Message(msg_id=2, src=1, dst=2, num_flits=4),
        ]
        barriers = {1: 0, 2: 1}
        assert_equivalent(net, messages, barriers)
        sim = NocSimulator(net, messages)
        sim.set_barriers(barriers)
        sim.run()
        assert messages[2].inject_start_cycle >= messages[1].complete_cycle

    def test_barrier_release_order_is_sorted_not_insertion(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=4),
            Message(msg_id=1, src=1, dst=2, num_flits=4),
        ]
        sim = NocSimulator(net, messages)
        # Insertion order deliberately reversed vs barrier order.
        sim.set_barriers({1: 7, 0: 1})
        sim.run()
        assert messages[1].inject_start_cycle >= messages[0].complete_cycle


class TestDegenerateRuns:
    def test_empty_run_returns_clean_stats(self):
        net = NocNetwork(Shape(2, 1, 1))
        stats = NocSimulator(net, []).run()
        assert stats.cycles == 0
        assert stats.flits_delivered == 0
        assert stats.messages_delivered == 0
        assert stats.events_processed == 0
        assert stats.per_message_latency == {}

    def test_empty_reference_run_matches(self):
        net = NocNetwork(Shape(2, 1, 1))
        stats = oracle(net, [])
        assert stats.cycles == 0
        assert stats.flits_delivered == 0

    def test_zero_flit_message_rejected_at_construction(self):
        net = NocNetwork(Shape(2, 1, 1))
        msg = Message(msg_id=0, src=0, dst=1, num_flits=1)
        msg.num_flits = 0  # mutated after the dataclass validation ran
        with pytest.raises(SimulationError, match="zero-flit"):
            NocSimulator(net, [msg])

    def test_unknown_dependency_rejected(self):
        net = NocNetwork(Shape(2, 1, 1))
        msg = Message(msg_id=0, src=0, dst=1, num_flits=1, deps=(42,))
        with pytest.raises(SimulationError, match="unknown"):
            NocSimulator(net, [msg])

    def test_self_dependency_rejected(self):
        net = NocNetwork(Shape(2, 1, 1))
        msg = Message(msg_id=0, src=0, dst=1, num_flits=1, deps=(0,))
        with pytest.raises(SimulationError, match="itself"):
            NocSimulator(net, [msg])

    def test_far_future_ready_cycle_hits_guard_without_spinning(self):
        """The event loop raises on a beyond-max_cycles event instead of
        busy-spinning its way there."""
        net = NocNetwork(Shape(2, 1, 1))
        msg = Message(msg_id=0, src=0, dst=1, num_flits=1,
                      ready_cycle=10**9)
        with pytest.raises(SimulationError, match="exceeded"):
            NocSimulator(net, [msg]).run(max_cycles=1000)

    @pytest.mark.parametrize("loop", ["_run", "oracle"])
    def test_max_cycles_bound_is_exact(self, loop):
        """A run that needs N cycles finishes under ``max_cycles=N`` and
        raises under ``N - 1``: the guard admits cycles ``0..N-1`` only."""
        net = NocNetwork(Shape(2, 2, 1))
        messages = [
            Message(msg_id=i, src=i, dst=(i + 1) % 4, num_flits=3)
            for i in range(4)
        ]

        def run(max_cycles):
            if loop == "oracle":
                return oracle(net, messages, max_cycles=max_cycles)
            return NocSimulator(net, list(messages))._run(max_cycles)

        assert run(157).cycles == 157
        with pytest.raises(SimulationError, match="exceeded 156 cycles"):
            run(156)


class TestEventAccounting:
    def test_idle_cycles_actually_skipped(self):
        """A sparse workload (two bursts far apart) must not be walked
        cycle by cycle."""
        shape = Shape(2, 1, 1)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=1, num_flits=2),
            Message(msg_id=1, src=1, dst=0, num_flits=2,
                    ready_cycle=50_000),
        ]
        stats = NocSimulator(net, messages).run()
        assert stats.cycles > 50_000
        assert stats.idle_cycles_skipped > 40_000
        assert stats.events_processed < 1_000
        assert (
            stats.events_processed + stats.idle_cycles_skipped
            == stats.cycles
        )
