"""Admission queue: explicit outcomes, quotas, and FIFO invariants.

The hypothesis suite drives random arrival interleavings through the
queue + slot cycle and pins the admission-order invariants documented
in ``repro.service.admission``:

* conservation — every enqueued entry is admitted exactly once,
* slot discipline — an occurrence only admits patterns its slot accepts,
* quota discipline — per-tenant admissions per occurrence and distinct
  structures per occurrence never exceed their caps,
* window discipline — consumed time fits the window except for the
  single-oversize allowance, and
* FIFO per (tenant, structure) — service order never reorders one
  tenant's same-structure requests.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
)
from repro.service import AdmissionQueue, QueueEntry, SlotCycle

pytestmark = pytest.mark.service

PATTERNS = (
    Collective.ALL_REDUCE,
    Collective.REDUCE_SCATTER,
    Collective.BROADCAST,
)

#: Deterministic fake service time: 1us per 8-byte element.
def service_time(request: CollectiveRequest) -> float:
    return request.num_elements * 1e-6


def structure(request: CollectiveRequest):
    return (request.pattern, request.root, request.dtype.itemsize)


def make_entry(sequence: int, tenant: str, pattern: Collective,
               elements: int) -> QueueEntry:
    return QueueEntry(
        sequence=sequence,
        tenant=tenant,
        request=CollectiveRequest(pattern, payload_bytes=8 * elements),
        arrival_s=0.0,
    )


def two_slot_config(**kwargs) -> ServiceConfig:
    return ServiceConfig(
        slots=(
            TimeSlotConfig(
                "reduce", ("all_reduce",),
                time_window_s=kwargs.pop("window_s", 100e-6),
                max_multiplexing=kwargs.pop("max_multiplexing", 1),
            ),
            TimeSlotConfig("rest", ()),
        ),
        **kwargs,
    )


class TestEnqueue:
    def test_queue_limit_is_explicit(self):
        config = two_slot_config(queue_limit=2)
        queue = AdmissionQueue(config)
        assert queue.try_enqueue(make_entry(0, "a", PATTERNS[0], 1)) is None
        assert queue.try_enqueue(make_entry(1, "b", PATTERNS[0], 1)) is None
        reason = queue.try_enqueue(make_entry(2, "c", PATTERNS[0], 1))
        assert reason is not None and "queue full" in reason
        assert "queue_limit=2" in reason

    def test_tenant_quota_is_explicit(self):
        config = two_slot_config(
            default_quota=TenantQuotaConfig(max_queued=1, max_per_slot=1)
        )
        queue = AdmissionQueue(config)
        assert queue.try_enqueue(make_entry(0, "a", PATTERNS[0], 1)) is None
        reason = queue.try_enqueue(make_entry(1, "a", PATTERNS[0], 1))
        assert reason is not None and "over quota" in reason
        assert "max_queued=1" in reason
        # Another tenant is unaffected.
        assert queue.try_enqueue(make_entry(2, "b", PATTERNS[0], 1)) is None
        assert queue.depth == 2


class TestSelect:
    def test_pattern_filter(self):
        config = two_slot_config()
        queue = AdmissionQueue(config)
        cycle = SlotCycle(config)
        queue.try_enqueue(make_entry(0, "a", Collective.BROADCAST, 1))
        queue.try_enqueue(make_entry(1, "a", Collective.ALL_REDUCE, 1))
        selection = queue.select(cycle.slot_at(0), structure, service_time)
        assert [e.sequence for e in selection.entries] == [1]
        selection = queue.select(cycle.slot_at(1), structure, service_time)
        assert [e.sequence for e in selection.entries] == [0]
        assert queue.depth == 0

    def test_single_oversize_allowance(self):
        config = two_slot_config(window_s=10e-6)
        queue = AdmissionQueue(config)
        cycle = SlotCycle(config)
        # 50us of work against a 10us window: admitted alone, overrun.
        queue.try_enqueue(make_entry(0, "a", Collective.ALL_REDUCE, 50))
        queue.try_enqueue(make_entry(1, "a", Collective.ALL_REDUCE, 50))
        selection = queue.select(cycle.slot_at(0), structure, service_time)
        assert selection.count == 1
        assert selection.consumed_s > cycle.slot_at(0).time_window_s
        assert queue.depth == 1

    def test_budget_fill_is_strictly_fifo(self):
        # 60us + 60us against 100us: the second does not fit, and the
        # smaller third entry must NOT leapfrog it.
        config = two_slot_config(window_s=100e-6)
        queue = AdmissionQueue(config)
        cycle = SlotCycle(config)
        queue.try_enqueue(make_entry(0, "a", Collective.ALL_REDUCE, 60))
        queue.try_enqueue(make_entry(1, "b", Collective.ALL_REDUCE, 60))
        queue.try_enqueue(make_entry(2, "c", Collective.ALL_REDUCE, 1))
        selection = queue.select(cycle.slot_at(0), structure, service_time)
        assert [e.sequence for e in selection.entries] == [0]

    def test_multiplexing_caps_distinct_structures(self):
        config = ServiceConfig(
            slots=(
                TimeSlotConfig("any", (), 1.0, max_multiplexing=1),
            ),
        )
        queue = AdmissionQueue(config)
        cycle = SlotCycle(config)
        queue.try_enqueue(make_entry(0, "a", Collective.ALL_REDUCE, 1))
        queue.try_enqueue(make_entry(1, "a", Collective.BROADCAST, 1))
        queue.try_enqueue(make_entry(2, "b", Collective.ALL_REDUCE, 2))
        selection = queue.select(cycle.slot_at(0), structure, service_time)
        # Both all_reduce entries batch on one structure; the broadcast
        # would be a second structure and must wait.
        assert [e.sequence for e in selection.entries] == [0, 2]
        assert len(selection.structures) == 1


@st.composite
def admission_cases(draw):
    max_multiplexing = draw(st.integers(1, 3))
    max_per_slot = draw(st.integers(1, 3))
    max_queued = draw(st.integers(1, 10))
    queue_limit = draw(st.integers(1, 30))
    window_us = draw(st.integers(1, 60))
    config = ServiceConfig(
        slots=(
            TimeSlotConfig(
                "reduce", ("all_reduce", "reduce_scatter"),
                time_window_s=window_us * 1e-6,
                max_multiplexing=max_multiplexing,
            ),
            TimeSlotConfig(
                "rest", (),
                time_window_s=window_us * 1e-6,
                max_multiplexing=max_multiplexing,
            ),
        ),
        switch_time_s=1e-6,
        queue_limit=queue_limit,
        default_quota=TenantQuotaConfig(
            max_queued=max_queued, max_per_slot=max_per_slot
        ),
    )
    arrivals = draw(
        st.lists(
            st.tuples(
                st.integers(0, 3),           # tenant
                st.integers(0, len(PATTERNS) - 1),
                st.integers(1, 40),          # elements -> service time
            ),
            min_size=1,
            max_size=40,
        )
    )
    return config, arrivals


class TestAdmissionInvariants:
    @given(case=admission_cases())
    @settings(deadline=None, max_examples=60)
    def test_random_interleavings_respect_cycle_and_quotas(self, case):
        config, arrivals = case
        cycle = SlotCycle(config)
        queue = AdmissionQueue(config)
        queued = []
        for sequence, (tenant, pattern, elements) in enumerate(arrivals):
            entry = make_entry(
                sequence, f"t{tenant}", PATTERNS[pattern], elements
            )
            reason = queue.try_enqueue(entry)
            if reason is None:
                queued.append(entry)
            else:
                assert reason  # rejection always carries a reason
        served = []
        position = 0
        for _ in range(10_000):
            if queue.depth == 0:
                break
            slot = cycle.slot_at(position)
            selection = queue.select(slot, structure, service_time)
            quota = config.default_quota
            per_tenant = {}
            for entry in selection.entries:
                # Slot discipline.
                assert slot.accepts(entry.request.pattern)
                per_tenant[entry.tenant] = per_tenant.get(entry.tenant, 0) + 1
            # Quota and multiplexing discipline.
            assert all(
                count <= quota.max_per_slot for count in per_tenant.values()
            )
            assert len(selection.structures) <= slot.max_multiplexing
            assert len(set(selection.structures)) == len(selection.structures)
            # Window discipline (single-oversize allowance).
            expected = sum(
                service_time(e.request) for e in selection.entries
            )
            assert selection.consumed_s == pytest.approx(expected)
            if selection.count > 1:
                assert selection.consumed_s <= slot.time_window_s * (1 + 1e-9)
            # In-occurrence admission order is global FIFO.
            sequences = [e.sequence for e in selection.entries]
            assert sequences == sorted(sequences)
            served.extend(selection.entries)
            position += 1
        else:
            pytest.fail("queue did not drain within 10k occurrences")
        # Conservation: everything queued is served exactly once.
        assert sorted(e.sequence for e in served) == sorted(
            e.sequence for e in queued
        )
        # FIFO per (tenant, structure) across the whole run.
        order: dict = {}
        for entry in served:
            key = (entry.tenant, structure(entry.request))
            order.setdefault(key, []).append(entry.sequence)
        for sequences in order.values():
            assert sequences == sorted(sequences)
