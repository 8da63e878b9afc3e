"""DDR channel model: host <-> PIM transfer timing."""

import pytest

from repro.config import HostConfig, HostLinkConfig
from repro.errors import MemoryModelError
from repro.memory import DdrChannel


@pytest.fixture
def channel() -> DdrChannel:
    return DdrChannel(HostLinkConfig(), HostConfig())


@pytest.fixture
def ideal_channel() -> DdrChannel:
    return DdrChannel(HostLinkConfig(), HostConfig(), ideal=True)


class TestDirections:
    def test_gather_uses_pim_to_cpu_rate(self, ideal_channel):
        t = ideal_channel.pim_to_cpu(4.74e9).time_s
        assert t == pytest.approx(1.0)

    def test_scatter_uses_cpu_to_pim_rate(self, ideal_channel):
        t = ideal_channel.cpu_to_pim(6.68e9).time_s
        assert t == pytest.approx(1.0)

    def test_broadcast_is_fastest_downstream(self, ideal_channel):
        down = ideal_channel.cpu_to_pim(1e9).time_s
        bcast = ideal_channel.cpu_to_pim_broadcast(1e9).time_s
        assert bcast < down


class TestOverheads:
    def test_real_channel_charges_setup(self, channel, ideal_channel):
        real = channel.pim_to_cpu(1e6, num_ranks=4).time_s
        ideal = ideal_channel.pim_to_cpu(1e6, num_ranks=4).time_s
        assert real > ideal

    def test_overhead_grows_with_ranks(self, channel):
        one = channel.pim_to_cpu(1e6, num_ranks=1).time_s
        four = channel.pim_to_cpu(1e6, num_ranks=4).time_s
        assert four > one

    def test_rank_count_validated(self, channel):
        with pytest.raises(MemoryModelError):
            channel.pim_to_cpu(100, num_ranks=0)

