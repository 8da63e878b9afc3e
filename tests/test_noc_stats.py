"""Per-link NoC statistics."""

from repro.core import Shape, allreduce_schedule, alltoall_schedule
from repro.noc import (
    Message,
    NocNetwork,
    NocSimulator,
    messages_from_schedule,
)


def run_scheduled(shape, schedule):
    net = NocNetwork(shape)
    messages, barriers = messages_from_schedule(schedule, net, "scheduled")
    sim = NocSimulator(net, messages)
    sim.set_barriers(barriers)
    return sim.run()


class TestLinkBusyAccounting:
    def test_single_message_busy_cycles(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        msg = Message(msg_id=0, src=0, dst=shape.dpu(0, 0, 1), num_flits=10)
        stats = NocSimulator(net, [msg]).run()
        link = net.path(0, shape.dpu(0, 0, 1))[0]
        assert stats.link_busy_cycles[link.name] == (
            10 * link.cycles_per_flit
        )

    def test_flit_hops_count_every_link_traversal(self):
        """One hop per flit per path link: 10 flits over 1 ring link,
        3 and 5 flits over 5-link io/dq/bus paths, 10 + 15 + 25 hops."""
        shape = Shape(2, 2, 2)
        net = NocNetwork(shape)
        messages = [
            Message(msg_id=0, src=0, dst=shape.dpu(0, 0, 1), num_flits=10),
            Message(
                msg_id=1,
                src=shape.dpu(1, 1, 0),
                dst=shape.dpu(0, 1, 1),
                num_flits=3,
            ),
            Message(
                msg_id=2,
                src=shape.dpu(0, 1, 1),
                dst=shape.dpu(1, 0, 0),
                num_flits=5,
            ),
        ]
        assert [len(net.path(m.src, m.dst)) for m in messages] == [1, 5, 5]
        stats = NocSimulator(net, messages).run()
        assert stats.total_flit_hops == 50

    def test_utilization_bounded(self):
        shape = Shape(2, 2, 2)
        stats = run_scheduled(shape, allreduce_schedule(shape, 64))
        for name in stats.link_busy_cycles:
            assert 0.0 <= stats.link_utilization(name) <= 1.0

    def test_unused_link_reads_zero(self):
        shape = Shape(4, 1, 1)
        net = NocNetwork(shape)
        msg = Message(msg_id=0, src=0, dst=shape.dpu(0, 0, 1), num_flits=4)
        stats = NocSimulator(net, [msg]).run()
        assert stats.link_utilization("ring:0:0:2>E") == 0.0


class TestHotspots:
    def test_a2a_hotspots_are_dq_or_bus(self):
        """All-to-All saturates the chip DQ ports and the bus, not the
        rings — the structural bottleneck the paper's Fig 11 shows."""
        shape = Shape(2, 2, 2)
        stats = run_scheduled(shape, alltoall_schedule(shape, 64))
        busy = stats.link_busy_cycles
        hottest = sorted(busy, key=busy.__getitem__, reverse=True)[:3]
        assert hottest, "no link stats collected"
        for name in hottest:
            assert name.startswith(("dq:", "bus:")), name

    def test_allreduce_rings_do_real_work(self):
        shape = Shape(4, 2, 1)
        stats = run_scheduled(
            shape, allreduce_schedule(shape, shape.num_dpus * 8)
        )
        ring_busy = sum(
            cycles
            for name, cycles in stats.link_busy_cycles.items()
            if name.startswith("ring:")
        )
        assert ring_busy > 0
