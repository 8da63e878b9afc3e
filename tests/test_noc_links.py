"""Link and shared-medium flow-control primitives."""

import pytest

from repro.errors import SimulationError
from repro.noc import Link, SharedMedium
from repro.noc.flit import Flit, Message


def make_link(**kwargs):
    """A link with its run started, so its FIFOs exist."""
    defaults = dict(
        name="l", src_router="a", dst_router="b",
        cycles_per_flit=2, latency_cycles=1, buffer_depth=2,
    )
    defaults.update(kwargs)
    link = Link(**defaults)
    link.reset()
    return link


def make_flit():
    msg = Message(msg_id=0, src=0, dst=1, num_flits=1)
    return Flit(message=msg, path=())


class TestCredits:
    def test_starts_with_full_credits(self):
        link = make_link()
        assert link.credits == 2

    def test_traversal_consumes_credit(self):
        link = make_link()
        link.start_traversal(make_flit(), now=0)
        assert link.credits == 1

    def test_cannot_exceed_buffer_depth(self):
        link = make_link(cycles_per_flit=1)
        link.start_traversal(make_flit(), now=0)
        link.start_traversal(make_flit(), now=1)
        assert not link.can_accept(2)

    def test_credit_return(self):
        link = make_link()
        link.start_traversal(make_flit(), now=0)
        link.return_credit()
        assert link.credits == 2

    def test_credit_overflow_detected(self):
        link = make_link()
        with pytest.raises(SimulationError):
            link.return_credit()


class TestSerialization:
    def test_busy_until_cycles_per_flit(self):
        link = make_link(cycles_per_flit=3)
        link.start_traversal(make_flit(), now=0)
        assert not link.can_accept(1)
        assert not link.can_accept(2)
        assert link.can_accept(3)

    def test_traversal_without_capacity_rejected(self):
        link = make_link(cycles_per_flit=5)
        link.start_traversal(make_flit(), now=0)
        with pytest.raises(SimulationError):
            link.start_traversal(make_flit(), now=1)

    def test_arrival_after_latency(self):
        link = make_link(cycles_per_flit=2, latency_cycles=3)
        flit = make_flit()
        link.start_traversal(flit, now=0)
        link.deliver_arrivals(4)
        assert len(link.buffer) == 0
        link.deliver_arrivals(5)
        assert list(link.buffer) == [flit]


class TestSharedMedium:
    def test_medium_serializes_across_links(self):
        bus = SharedMedium("bus")
        a = make_link(name="a", medium=bus, cycles_per_flit=4)
        b = make_link(name="b", medium=bus, cycles_per_flit=4)
        a.start_traversal(make_flit(), now=0)
        assert not b.can_accept(0)
        assert not b.can_accept(3)
        assert b.can_accept(4)

    def test_reset_clears_state(self):
        link = make_link()
        link.start_traversal(make_flit(), now=0)
        link.reset()
        assert link.credits == 2
        assert link.next_free_cycle == 0
        assert not link.in_flight


class TestRunFifos:
    def test_fifos_exist_only_while_a_run_is_live(self):
        link = Link(name="l", src_router="a", dst_router="b",
                    cycles_per_flit=1, latency_cycles=0)
        assert link.buffer is None and link.in_flight is None
        link.reset()
        link.start_traversal(make_flit(), now=0)
        link.deliver_arrivals(1)
        assert len(link.buffer) == 1
        link.release()
        assert link.buffer is None and link.in_flight is None
        link.reset()
        assert not link.buffer and not link.in_flight

    def test_links_have_no_instance_dict(self):
        assert not hasattr(make_link(), "__dict__")


class TestValidation:
    def test_zero_cycles_per_flit_rejected(self):
        with pytest.raises(SimulationError):
            make_link(cycles_per_flit=0)

    def test_zero_buffer_rejected(self):
        with pytest.raises(SimulationError):
            make_link(buffer_depth=0)

    def test_message_validation(self):
        with pytest.raises(SimulationError):
            Message(msg_id=0, src=1, dst=1, num_flits=1)
        with pytest.raises(SimulationError):
            Message(msg_id=0, src=0, dst=1, num_flits=0)
