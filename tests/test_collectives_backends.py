"""Comparison backends: support matrix, timing structure, orderings."""

import numpy as np
import pytest

from repro.collectives import (
    Collective,
    CollectiveRequest,
    REDUCING_PATTERNS,
    host_path_volumes,
    registry,
)
from repro.config import pimnet_sim_system
from repro.errors import BackendError, CollectiveError

from .conftest import make_buffers

ALL_KEYS = ("B", "S", "MaxBW", "D", "N", "P")


def req(pattern, payload=32 * 1024):
    return CollectiveRequest(pattern, payload, dtype=np.dtype(np.int64))


class TestRegistry:
    def test_all_backends_registered(self):
        assert set(registry.keys()) >= set(ALL_KEYS)

    def test_unknown_key_rejected(self, machine):
        with pytest.raises(BackendError):
            registry.create("bogus", machine)

    def test_duplicate_registration_rejected(self):
        from repro.collectives.host_baseline import HostBaselineBackend

        with pytest.raises(BackendError):
            registry.register("B", HostBaselineBackend)

    def test_create_many(self, machine):
        backends = {key: registry.create(key, machine) for key in "BP"}
        assert backends["B"].name == "Baseline PIM"
        assert backends["P"].name == "PIMnet"

    def test_multi_channel_machine_rejected(self):
        machine = pimnet_sim_system(num_channels=2)
        with pytest.raises(BackendError):
            registry.create("B", machine)


class TestSupportMatrix:
    def test_ndpbridge_has_no_reductions(self, machine):
        backend = registry.create("N", machine)
        for pattern in REDUCING_PATTERNS:
            assert not backend.supports(pattern)
        assert backend.supports(Collective.ALL_TO_ALL)

    def test_ndpbridge_raises_on_allreduce(self, machine):
        backend = registry.create("N", machine)
        with pytest.raises(BackendError):
            backend.run(req(Collective.ALL_REDUCE))

    @pytest.mark.parametrize("key", ["B", "S", "MaxBW", "D", "P"])
    def test_others_support_everything(self, machine, key):
        backend = registry.create(key, machine)
        for pattern in Collective:
            assert backend.supports(pattern)


class TestFunctionalEquivalence:
    """Every backend must produce the exact same outputs."""

    @pytest.mark.parametrize(
        "pattern",
        [
            Collective.ALL_REDUCE,
            Collective.REDUCE_SCATTER,
            Collective.ALL_GATHER,
            Collective.ALL_TO_ALL,
            Collective.BROADCAST,
        ],
    )
    def test_outputs_match_across_backends(self, tiny_machine, rng, pattern):
        n = tiny_machine.system.banks_per_channel
        buffers = make_buffers(n, 16, rng)
        request = req(pattern, payload=16 * 8)
        reference = None
        for key in ALL_KEYS:
            backend = registry.create(key, tiny_machine)
            if not backend.supports(pattern):
                continue
            outputs = backend.run(request, buffers).outputs
            if reference is None:
                reference = outputs
            else:
                for a, b in zip(reference, outputs):
                    assert np.array_equal(a, b), key

    def test_buffer_count_checked(self, tiny_machine, rng):
        backend = registry.create("B", tiny_machine)
        with pytest.raises(CollectiveError):
            backend.run(req(Collective.ALL_REDUCE), make_buffers(3, 16, rng))


class TestTimingStructure:
    def test_host_backends_spend_time_on_host(self, machine):
        for key in ("B", "S", "MaxBW"):
            breakdown = registry.create(key, machine).timing(
                req(Collective.ALL_REDUCE)
            )
            assert breakdown.host_transfer_s > 0
            assert breakdown.inter_bank_s == 0
            assert breakdown.inter_rank_s == 0

    def test_pimnet_never_touches_host(self, machine):
        breakdown = registry.create("P", machine).timing(
            req(Collective.ALL_REDUCE)
        )
        assert breakdown.host_transfer_s == 0
        assert breakdown.host_compute_s == 0
        assert breakdown.inter_bank_s > 0
        assert breakdown.sync_s > 0

    def test_baseline_charges_host_compute(self, machine):
        b = registry.create("B", machine).timing(req(Collective.ALL_REDUCE))
        s = registry.create("S", machine).timing(req(Collective.ALL_REDUCE))
        assert b.host_compute_s > 0
        assert s.host_compute_s == 0

    def test_dimm_link_stays_off_host(self, machine):
        breakdown = registry.create("D", machine).timing(
            req(Collective.ALL_REDUCE)
        )
        assert breakdown.host_transfer_s == 0
        assert breakdown.inter_chip_s > 0

    def test_ndpbridge_crosses_host_between_ranks(self, machine):
        breakdown = registry.create("N", machine).timing(
            req(Collective.ALL_TO_ALL)
        )
        assert breakdown.host_transfer_s > 0
        assert breakdown.inter_chip_s > 0


class TestPaperOrderings:
    """The qualitative orderings every figure depends on."""

    @pytest.mark.parametrize(
        "pattern",
        [Collective.ALL_REDUCE, Collective.REDUCE_SCATTER],
    )
    def test_p_beats_s_beats_b_at_full_scale(self, machine, pattern):
        times = {
            key: registry.create(key, machine).timing(req(pattern)).total_s
            for key in ("B", "S", "P")
        }
        assert times["P"] < times["S"] < times["B"]

    def test_allreduce_speedup_magnitude(self, machine):
        """PIMnet's 256-DPU AllReduce gain is tens of x (paper: up to 85x
        across collectives; AllReduce lands in the 30-60x band)."""
        b = registry.create("B", machine).timing(req(Collective.ALL_REDUCE))
        p = registry.create("P", machine).timing(req(Collective.ALL_REDUCE))
        assert 20 < b.total_s / p.total_s < 80

    def test_reduce_scatter_hits_headline_speedup(self, machine):
        """Reduce-Scatter is the pattern that reaches the ~85x headline."""
        b = registry.create("B", machine).timing(
            req(Collective.REDUCE_SCATTER)
        )
        p = registry.create("P", machine).timing(
            req(Collective.REDUCE_SCATTER)
        )
        assert 50 < b.total_s / p.total_s < 120

    def test_alltoall_gain_is_much_smaller(self, machine):
        """A2A is bus-bound: the PIMnet gain is far below AllReduce's."""
        ar_ratio = (
            registry.create("B", machine).timing(req(Collective.ALL_REDUCE)).total_s
            / registry.create("P", machine).timing(req(Collective.ALL_REDUCE)).total_s
        )
        a2a_ratio = (
            registry.create("B", machine).timing(req(Collective.ALL_TO_ALL)).total_s
            / registry.create("P", machine).timing(req(Collective.ALL_TO_ALL)).total_s
        )
        assert a2a_ratio < ar_ratio / 2

    def test_maxbw_beats_measured_software(self, machine):
        s = registry.create("S", machine).timing(req(Collective.ALL_REDUCE))
        maxbw = registry.create("MaxBW", machine).timing(
            req(Collective.ALL_REDUCE)
        )
        assert maxbw.total_s < s.total_s

    def test_timing_scales_with_payload(self, machine):
        for key in ("B", "S", "D", "P"):
            backend = registry.create(key, machine)
            small = backend.timing(req(Collective.ALL_REDUCE, 8 * 1024))
            large = backend.timing(req(Collective.ALL_REDUCE, 64 * 1024))
            assert large.total_s > small.total_s


class TestHostPathVolumes:
    def test_allreduce_volumes(self):
        v = host_path_volumes(req(Collective.ALL_REDUCE, 1024), 8)
        assert v.up_bytes == 8 * 1024
        assert v.down_broadcast_bytes == 1024
        assert v.down_bytes == 0
        assert v.host_processed_bytes == 8 * 1024

    def test_alltoall_volumes(self):
        v = host_path_volumes(req(Collective.ALL_TO_ALL, 1024), 8)
        assert v.up_bytes == 8 * 1024
        assert v.down_bytes == 8 * 1024

    def test_gather_has_no_downstream(self):
        v = host_path_volumes(req(Collective.REDUCE, 1024), 8)
        assert v.down_broadcast_bytes == 0
