"""NoC topology construction and deterministic routing."""

import pytest

from repro.core import Shape
from repro.errors import TopologyError
from repro.noc import NocNetwork


@pytest.fixture
def net() -> NocNetwork:
    return NocNetwork(Shape(4, 2, 2))


def stop_name(net: NocNetwork, dpu: int) -> str:
    r, c, b = net.shape.coords(dpu)
    return f"stop:{r}:{c}:{b}"


class TestConstruction:
    def test_ring_links_both_directions(self, net):
        east = [n for n in net.links if ">E" in n]
        west = [n for n in net.links if ">W" in n]
        # 4 banks x 2 chips x 2 ranks, one east+west link per bank
        assert len(east) == 16
        assert len(west) == 16

    def test_every_bank_has_io_taps(self, net):
        ups = [n for n in net.links if n.startswith("io:") and n.endswith("up")]
        assert len(ups) == 16

    def test_dq_links_per_chip(self, net):
        dq = [n for n in net.links if n.startswith("dq:")]
        assert len(dq) == 2 * 4  # up+down per chip

    def test_bus_links_share_medium(self, net):
        bus_links = [l for n, l in net.links.items() if n.startswith("bus:")]
        assert len(bus_links) == 2  # 2 ranks, ordered pairs
        assert all(l.medium is net.bus_medium for l in bus_links)

    def test_bank_links_slower_than_bus(self, net):
        ring = net.links["ring:0:0:0>E"]
        bus = net.links["bus:0>1"]
        assert ring.cycles_per_flit > bus.cycles_per_flit

    def test_single_bank_chip_has_no_ring(self):
        net = NocNetwork(Shape(1, 2, 1))
        assert not any(n.startswith("ring:") for n in net.links)


class TestRouting:
    def test_same_chip_uses_ring_only(self, net):
        path = net.path(net.shape.dpu(0, 0, 0), net.shape.dpu(0, 0, 1))
        assert all(l.name.startswith("ring:") for l in path)

    def test_shorter_way_routing(self, net):
        # distance 3 east vs 1 west on a 4-ring: choose west
        path = net.path(net.shape.dpu(0, 0, 0), net.shape.dpu(0, 0, 3))
        assert len(path) == 1
        assert ">W" in path[0].name

    def test_cross_chip_path_structure(self, net):
        src = net.shape.dpu(0, 0, 1)
        dst = net.shape.dpu(0, 1, 2)
        names = [l.name for l in net.path(src, dst)]
        assert names[0].startswith("io:0:0:1:up")
        assert names[1].startswith("dq:0:0:up")
        assert names[2].startswith("dq:0:1:down")
        assert names[3].startswith("io:0:1:2:down")

    def test_cross_rank_path_crosses_bus(self, net):
        src = net.shape.dpu(0, 0, 0)
        dst = net.shape.dpu(1, 1, 3)
        names = [l.name for l in net.path(src, dst)]
        assert "bus:0>1" in names

    def test_path_endpoints_consistent(self, net):
        for src in range(net.shape.num_dpus):
            for dst in range(net.shape.num_dpus):
                if src == dst:
                    continue
                path = net.path(src, dst)
                assert path[0].src_router == stop_name(net, src)
                assert path[-1].dst_router == stop_name(net, dst)
                # hops chain together
                for a, b in zip(path, path[1:]):
                    assert a.dst_router == b.src_router

    def test_self_path_rejected(self, net):
        with pytest.raises(TopologyError):
            net.path(0, 0)


class TestReset:
    def test_reset_restores_links_and_bus(self, net):
        link = net.links["bus:0>1"]
        from repro.noc.flit import Flit, Message

        flit = Flit(
            message=Message(msg_id=0, src=0, dst=8, num_flits=1),
            path=(),
        )
        net.reset()
        link.start_traversal(flit, now=0)
        net.reset()
        assert link.credits == link.buffer_depth
        assert net.bus_medium.next_free_cycle == 0
        assert not link.in_flight

    def test_release_drops_every_fifo(self, net):
        net.reset()
        net.release()
        assert all(
            link.buffer is None and link.in_flight is None
            for link in net.links.values()
        )
