"""Multi-channel collective composition."""

from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import Collective, CollectiveRequest
from repro.config import pimnet_sim_system
from repro.core.multichannel import multichannel_collective
from repro.errors import BackendError


def request(pattern=Collective.ALL_REDUCE, payload=32 * 1024):
    return CollectiveRequest(pattern, payload, dtype=np.dtype(np.int64))


def channel_scaling_series(machine, request, channel_counts=(1, 2, 4, 8)):
    """(channels, total time) of a PIMnet collective, Fig 16 style."""
    out = []
    for k in channel_counts:
        m = replace(machine, system=replace(machine.system, num_channels=k))
        out.append((k, multichannel_collective(m, request, "P").total_s))
    return out


class TestSingleChannel:
    def test_no_cross_channel_cost(self):
        machine = pimnet_sim_system(num_channels=1)
        parts = multichannel_collective(machine, request())
        assert parts.cross_channel_s == 0.0
        assert parts.total_s == parts.per_channel.total_s


class TestCrossChannel:
    def test_host_bridge_adds_cost(self):
        machine = pimnet_sim_system(num_channels=4)
        parts = multichannel_collective(machine, request())
        assert parts.cross_channel_s > 0

    def test_reducing_patterns_cross_one_payload(self):
        """After channel-local reduction only one payload crosses —
        non-reducing patterns must move everything."""
        machine = pimnet_sim_system(num_channels=4)
        reduced = multichannel_collective(machine, request())
        moved = multichannel_collective(
            machine, request(Collective.ALL_TO_ALL)
        )
        assert moved.cross_channel_s > 10 * reduced.cross_channel_s

    def test_direct_bridge_beats_host(self):
        machine = pimnet_sim_system(num_channels=4)
        host = multichannel_collective(machine, request(), bridge="host")
        direct = multichannel_collective(
            machine, request(), bridge="direct"
        )
        assert direct.cross_channel_s < host.cross_channel_s

    def test_unknown_bridge_rejected(self):
        machine = pimnet_sim_system(num_channels=2)
        with pytest.raises(BackendError):
            multichannel_collective(machine, request(), bridge="teleport")

    def test_works_with_baseline_backend_too(self):
        machine = pimnet_sim_system(num_channels=2)
        parts = multichannel_collective(machine, request(), backend_key="B")
        assert parts.total_s > 0


class TestScalingSeries:
    def test_series_shape(self):
        machine = pimnet_sim_system()
        series = channel_scaling_series(machine, request())
        assert [k for k, _ in series] == [1, 2, 4, 8]
        assert all(t > 0 for _, t in series)

    def test_pimnet_cross_cost_nearly_flat(self):
        """PIMnet's host term grows only with the per-channel payload,
        so total time stays nearly constant as channels grow."""
        machine = pimnet_sim_system()
        series = channel_scaling_series(machine, request())
        times = [t for _, t in series]
        assert times[-1] < 1.5 * times[0]
