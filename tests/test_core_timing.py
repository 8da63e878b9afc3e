"""Closed-form PIMnet timing vs schedule-derived link-load timing.

The closed-form model (used by every experiment) and the transfer-level
schedule timing are two independent derivations of the same physics;
they must agree essentially exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.collectives import Collective, CollectiveRequest
from repro.config import PimSystemConfig, pimnet_sim_system
from repro.core import (
    PimnetBackend,
    Shape,
    Tier,
    build_schedule,
    schedule_timing,
)

SHAPES = [(8, 8, 4), (4, 4, 2), (2, 2, 2), (8, 8, 1), (1, 4, 4), (2, 8, 4)]
PATTERNS = [
    Collective.ALL_REDUCE,
    Collective.REDUCE_SCATTER,
    Collective.ALL_TO_ALL,
]


def machine_for(b, c, r):
    return replace(
        pimnet_sim_system(),
        system=PimSystemConfig(
            banks_per_chip=b, chips_per_rank=c, ranks_per_channel=r
        ),
    )


@pytest.mark.parametrize("shape_tuple", SHAPES, ids=str)
@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("elems_per_dpu", [16, 256])
def test_closed_form_matches_schedule(shape_tuple, pattern, elems_per_dpu):
    b, c, r = shape_tuple
    machine = machine_for(b, c, r)
    backend = PimnetBackend(machine)
    n = b * c * r
    e = n * elems_per_dpu
    request = CollectiveRequest(pattern, e * 8, dtype=np.dtype(np.int64))
    closed = backend.model._tier_times(request)
    derived = schedule_timing(
        build_schedule(pattern, Shape(b, c, r), e), machine.pimnet, itemsize=8
    )
    for closed_value, derived_value in (
        (closed.bank_s, derived[Tier.BANK]),
        (closed.chip_s, derived[Tier.CHIP]),
        (closed.rank_s, derived[Tier.RANK]),
    ):
        if max(closed_value, derived_value) == 0:
            continue
        rel = abs(closed_value - derived_value) / max(
            closed_value, derived_value
        )
        assert rel < 0.01, (closed_value, derived_value)


class TestBreakdownStructure:
    def test_sync_counts_phases(self, machine):
        backend = PimnetBackend(machine)
        ar = backend.timing(CollectiveRequest(Collective.ALL_REDUCE, 1024))
        rs = backend.timing(
            CollectiveRequest(Collective.REDUCE_SCATTER, 2048)
        )
        # AllReduce has twice the phase boundaries of Reduce-Scatter
        assert ar.sync_s == pytest.approx(2 * rs.sync_s)

    def test_mem_staging_kicks_in_above_wram(self, machine):
        backend = PimnetBackend(machine)
        small = backend.timing(CollectiveRequest(Collective.ALL_REDUCE, 8 * 1024))
        large = backend.timing(
            CollectiveRequest(Collective.ALL_REDUCE, 128 * 1024)
        )
        assert small.mem_s == 0
        assert large.mem_s > 0

    def test_alltoall_stages_twice_the_payload(self, machine):
        backend = PimnetBackend(machine)
        ar = backend.timing(CollectiveRequest(Collective.ALL_REDUCE, 48 * 1024))
        a2a = backend.timing(
            CollectiveRequest(Collective.ALL_TO_ALL, 48 * 1024)
        )
        # 48 KB fits WRAM once but not twice (A2A needs in + out)
        assert ar.mem_s == 0
        assert a2a.mem_s > 0

    def test_single_bank_scope_has_no_network_time(self):
        machine = machine_for(1, 1, 1)
        backend = PimnetBackend(machine)
        t = backend.timing(CollectiveRequest(Collective.ALL_REDUCE, 1024))
        assert t.inter_bank_s == 0
        assert t.inter_chip_s == 0
        assert t.inter_rank_s == 0

    def test_all_patterns_have_positive_time(self, machine):
        backend = PimnetBackend(machine)
        for pattern in Collective:
            t = backend.timing(CollectiveRequest(pattern, 32 * 1024))
            assert t.total_s > 0, pattern


class TestTierProportions:
    def test_allreduce_is_interbank_dominated(self, machine):
        """At the default bandwidths the 0.7 GB/s rings dominate AR."""
        backend = PimnetBackend(machine)
        t = backend.timing(CollectiveRequest(Collective.ALL_REDUCE, 32 * 1024))
        assert t.inter_bank_s > t.inter_chip_s > t.inter_rank_s

    def test_alltoall_is_interrank_dominated(self, machine):
        """A2A's global traffic is bus-bound (Section III-B)."""
        backend = PimnetBackend(machine)
        t = backend.timing(CollectiveRequest(Collective.ALL_TO_ALL, 32 * 1024))
        assert t.inter_rank_s > t.inter_chip_s > t.inter_bank_s

    def test_unicast_efficiency_applies_to_a2a_only(self, machine):
        fast = replace(
            machine,
            pimnet=replace(machine.pimnet, inter_rank_unicast_efficiency=1.0),
        )
        slow_backend = PimnetBackend(machine)
        fast_backend = PimnetBackend(fast)
        a2a = CollectiveRequest(Collective.ALL_TO_ALL, 32 * 1024)
        ar = CollectiveRequest(Collective.ALL_REDUCE, 32 * 1024)
        assert fast_backend.timing(a2a).inter_rank_s < (
            slow_backend.timing(a2a).inter_rank_s
        )
        assert fast_backend.timing(ar).inter_rank_s == pytest.approx(
            slow_backend.timing(ar).inter_rank_s
        )
