"""Algorithm 1: address generation and traffic-timing offsets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import Collective, CollectiveRequest
from repro.config import pimnet_sim_system
from repro.core import (
    AllReduceAddressGenerator,
    PimnetBackend,
    Shape,
    Tier,
    alltoall_schedule,
)
from repro.errors import ScheduleError


@pytest.fixture
def generator(machine):
    backend = PimnetBackend(machine)
    shape = Shape(8, 8, 4)
    return AllReduceAddressGenerator(
        shape, num_elements=shape.num_dpus * 8, model=backend.model
    )


class TestAllReduceAddresses:
    def test_bank_rs_address_matches_algorithm_1(self, generator):
        """Addr_s = Addr_B + D/N_B * ((I_B + N_B - 1) % N_B) for the ring
        RS first send (the segment one position behind)."""
        shape = generator.shape
        seg = generator.num_elements // shape.banks
        for dpu in (0, 17, 100, 255):
            _, _, bank = shape.coords(dpu)
            plan = generator.plan(dpu).phase("bank", "RS")
            assert plan.start_address == seg * ((bank - 1) % shape.banks)
            assert plan.segment_elements == seg
            assert plan.start_offset_s == 0.0

    def test_bank_ag_address_is_own_segment(self, generator):
        shape = generator.shape
        seg = generator.num_elements // shape.banks
        plan = generator.plan(9).phase("bank", "AG")
        _, _, bank = shape.coords(9)
        assert plan.start_address == seg * bank

    def test_phase_offsets_are_ordered(self, generator):
        """RS phases start bank -> chip -> rank; AG mirrors after them."""
        plan = generator.plan(3)
        offsets = {
            (p.domain, p.phase): p.start_offset_s for p in plan.phases
        }
        assert offsets[("bank", "RS")] <= offsets[("chip", "RS")]
        assert offsets[("chip", "RS")] <= offsets[("rank", "RS")]
        assert offsets[("rank", "RS")] <= offsets[("rank", "AG")]
        assert offsets[("rank", "AG")] <= offsets[("chip", "AG")]
        assert offsets[("chip", "AG")] <= offsets[("bank", "AG")]

    def test_bank_ag_offset_formula(self, generator):
        """offset(bank AG) = T_RS_B + T_RS_C + T_RS_R + T_AG_R + T_AG_C."""
        plan = generator.plan(0).phase("bank", "AG")
        expected = (
            generator.t_rs_bank
            + generator.t_rs_chip
            + generator.t_rs_rank
            + generator.t_ag_rank
            + generator.t_ag_chip
        )
        assert plan.start_offset_s == pytest.approx(expected)

    def test_total_time_consistent_with_model(self, generator, machine):
        backend = PimnetBackend(machine)
        tiers = backend.model._tier_times(
            CollectiveRequest(
                Collective.ALL_REDUCE, generator.num_elements * 8
            )
        )
        phase_offsets = (
            generator.t_rs_bank + generator.t_rs_chip + generator.t_rs_rank
            + generator.t_ag_rank + generator.t_ag_chip + generator.t_ag_bank
        )
        assert phase_offsets == pytest.approx(
            tiers.bank_s + tiers.chip_s + tiers.rank_s
        )

    def test_all_plans_cover_all_banks(self, generator):
        plans = [generator.plan(d) for d in range(generator.shape.num_dpus)]
        assert len(plans) == generator.shape.num_dpus
        assert [p.dpu for p in plans] == list(range(len(plans)))

    def test_missing_phase_raises(self, generator):
        with pytest.raises(ScheduleError):
            generator.plan(0).phase("bank", "XX")

    def test_indivisible_elements_rejected(self, machine):
        backend = PimnetBackend(machine)
        with pytest.raises(ScheduleError):
            AllReduceAddressGenerator(
                Shape(8, 8, 4), num_elements=100, model=backend.model
            )

    def test_base_address_offsets_everything(self, machine):
        backend = PimnetBackend(machine)
        shape = Shape(2, 2, 2)
        gen0 = AllReduceAddressGenerator(shape, 32, backend.model)
        gen9 = AllReduceAddressGenerator(
            shape, 32, backend.model, base_address=1000
        )
        for d in range(shape.num_dpus):
            for p0, p9 in zip(gen0.plan(d).phases, gen9.plan(d).phases):
                assert p9.start_address == p0.start_address + 1000


def alltoall_sends(shape, num_elements):
    """Source DPU -> its ``(destination, source offset)`` All-to-All sends."""
    sends = {dpu: [] for dpu in range(shape.num_dpus)}
    for phase in alltoall_schedule(shape, num_elements).phases:
        if phase.tier is Tier.LOCAL:
            continue
        for step in phase.steps:
            for t in step.transfers:
                sends[t.src].append((t.dst, t.src_offset))
    return sends


class TestAllToAllAddresses:
    def test_send_addresses_are_destination_indexed(self):
        """Fig 9(b): the chunk for N_j sits at base + j*chunk."""
        shape = Shape(2, 2, 2)
        addresses = alltoall_sends(shape, 64)[3]
        chunk = 64 // shape.num_dpus
        assert len(addresses) == shape.num_dpus - 1
        for dst, address in addresses:
            assert dst != 3
            assert address == dst * chunk

    def test_addresses_cover_all_peers(self):
        shape = Shape(2, 2, 2)
        addresses = alltoall_sends(shape, 64)[0]
        assert sorted(dst for dst, _ in addresses) == list(range(1, 8))

    def test_indivisible_rejected(self):
        with pytest.raises(ScheduleError):
            alltoall_schedule(Shape(2, 2, 2), 63)


# ---------------------------------------------------------------------------
# Hypothesis properties: the hierarchical address maps round-trip and
# never alias distinct (rank, chip, bank, offset) tuples.
# ---------------------------------------------------------------------------

hyp_dims = st.integers(min_value=1, max_value=5)
hyp_shapes = st.builds(Shape, banks=hyp_dims, chips=hyp_dims, ranks=hyp_dims)


class TestShapeAddressingProperties:
    @given(shape=hyp_shapes)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_identity(self, shape):
        """coords(dpu(r, c, b)) == (r, c, b) over the whole grid."""
        for rank in range(shape.ranks):
            for chip in range(shape.chips):
                for bank in range(shape.banks):
                    dpu = shape.dpu(rank, chip, bank)
                    assert shape.coords(dpu) == (rank, chip, bank)

    @given(shape=hyp_shapes)
    @settings(max_examples=60, deadline=None)
    def test_no_two_tuples_alias(self, shape):
        """The flat id is a bijection: distinct coordinate tuples map to
        distinct ids, and every id in [0, N) is hit."""
        ids = {
            shape.dpu(rank, chip, bank)
            for rank in range(shape.ranks)
            for chip in range(shape.chips)
            for bank in range(shape.banks)
        }
        assert ids == set(range(shape.num_dpus))


@st.composite
def plan_cases(draw):
    shape = draw(hyp_shapes)
    per_dpu = draw(st.integers(min_value=1, max_value=8))
    return shape, shape.num_dpus * per_dpu


class TestAllReducePlanProperties:
    @given(case=plan_cases())
    @settings(max_examples=40, deadline=None)
    def test_bank_ag_addresses_partition_the_vector(self, case):
        """Within each chip, the per-bank AG segments tile [0, E) with
        no overlap — two banks never own the same address."""
        shape, num_elements = case
        model = PimnetBackend(pimnet_sim_system()).model
        generator = AllReduceAddressGenerator(shape, num_elements, model)
        seg = num_elements // shape.banks
        for rank in range(shape.ranks):
            for chip in range(shape.chips):
                starts = []
                for bank in range(shape.banks):
                    plan = generator.plan(shape.dpu(rank, chip, bank))
                    if shape.banks > 1:
                        starts.append(plan.phase("bank", "AG").start_address)
                if shape.banks > 1:
                    assert sorted(starts) == [
                        seg * b for b in range(shape.banks)
                    ]
                    assert len(set(starts)) == shape.banks

    @given(case=plan_cases())
    @settings(max_examples=40, deadline=None)
    def test_alltoall_sends_never_alias(self, case):
        """Every peer's chunk sits at a distinct destination-indexed
        address; no two sends from one DPU overlap."""
        shape, num_elements = case
        chunk = num_elements // shape.num_dpus
        for addresses in alltoall_sends(shape, num_elements).values():
            seen = set()
            for dst, address in addresses:
                assert address == dst * chunk
                assert address not in seen
                seen.add(address)

