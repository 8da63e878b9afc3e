"""PimnetBackend and stop/switch structural specs."""

import numpy as np
import pytest

from repro.collectives import Collective, CollectiveRequest
from repro.core import PimnetBackend, PimnetStopSpec, SwitchSpec, Shape
from repro.core.collectives import PIMNET_ALGORITHMS, algorithm_chain
from repro.errors import ConfigurationError, ScheduleError


class TestBackendShape:
    def test_shape_mirrors_machine(self, machine):
        backend = PimnetBackend(machine)
        assert backend.shape == Shape(8, 8, 4)

    def test_schedule_uses_request_pattern(self, machine):
        backend = PimnetBackend(machine)
        request = CollectiveRequest(
            Collective.ALL_TO_ALL, 256 * 8, dtype=np.dtype(np.int64)
        )
        sched = backend.schedule(request)
        assert sched.pattern is Collective.ALL_TO_ALL
        assert sched.shape.num_dpus == 256

    def test_schedule_requires_divisible_elements(self, machine):
        backend = PimnetBackend(machine)
        request = CollectiveRequest(Collective.ALL_REDUCE, 8)
        with pytest.raises(ScheduleError):
            backend.schedule(request)


class TestTableV:
    def test_every_primary_pattern_has_a_chain(self):
        for pattern in (
            Collective.REDUCE_SCATTER,
            Collective.ALL_GATHER,
            Collective.ALL_REDUCE,
            Collective.ALL_TO_ALL,
            Collective.BROADCAST,
        ):
            assert pattern in PIMNET_ALGORITHMS

    def test_allreduce_chain_is_rs_then_ag(self):
        chain = PIMNET_ALGORITHMS[Collective.ALL_REDUCE]
        tiers = [leg.tier for leg in chain]
        assert tiers == [
            "inter-bank", "inter-chip", "inter-rank",
            "inter-chip", "inter-bank",
        ]

    def test_alltoall_uses_permutation_and_unicast(self):
        chain = PIMNET_ALGORITHMS[Collective.ALL_TO_ALL]
        assert [leg.algorithm for leg in chain] == [
            "ring", "permutation", "unicast",
        ]

    def test_chain_formatting(self):
        text = algorithm_chain(Collective.REDUCE_SCATTER)
        assert text == (
            "Ring(inter-bank) -> Ring(inter-chip) -> Broadcast(inter-rank)"
        )

    def test_unmapped_pattern_falls_back(self):
        assert algorithm_chain(Collective.GATHER) == "single-DPU funnel"


class TestStopSpec:
    def test_default_geometry_matches_fig7(self):
        spec = PimnetStopSpec()
        assert spec.channel_width_bits == 16
        assert spec.num_channels == 4
        assert spec.traversal_stages == 1

    def test_from_tier(self, machine):
        # The default stop carries the inter-bank tier's channel geometry.
        spec = PimnetStopSpec()
        tier = machine.pimnet.inter_bank
        assert (tier.width_bits, tier.num_channels) == (16, 4)
        assert spec.channel_width_bits == tier.width_bits
        assert spec.num_channels == tier.num_channels

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PimnetStopSpec(channel_width_bits=0)
        with pytest.raises(ConfigurationError):
            PimnetStopSpec(traversal_stages=0)


class TestSwitchSpec:
    def test_default_is_8x8_of_4bit_ports(self):
        spec = SwitchSpec()
        assert spec.radix == 8
        assert spec.port_width_bits == 4
        assert spec.crosspoint_count == 64

    def test_config_registers(self):
        spec = SwitchSpec(num_step_configs=16)
        assert spec.config_register_bits == 16 * 32

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SwitchSpec(radix=1)
        with pytest.raises(ConfigurationError):
            SwitchSpec(port_width_bits=0)
