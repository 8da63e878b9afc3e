"""The asyncio collective service: outcomes, backpressure, invariants."""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config import small_test_system
from repro.config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
    default_service_config,
)
from repro.errors import ServiceError
from repro.observability import (
    MetricsRegistry,
    instrument_key,
    use_metrics,
)
from repro.schedcache import ScheduleCache, use_schedule_cache
from repro.service import (
    SERVICE_SUBSTRATE,
    CollectiveService,
    Outcome,
    SlotCycle,
)

pytestmark = pytest.mark.service

TINY = small_test_system()  # 2x2x2 = 8 DPUs
TINY_DPUS = 8


def ar(elements_per_dpu: int = 8) -> CollectiveRequest:
    """An AllReduce whose element count divides the tiny machine."""
    return CollectiveRequest(
        Collective.ALL_REDUCE,
        payload_bytes=8 * TINY_DPUS * elements_per_dpu,
    )


def run(coro):
    return asyncio.run(coro)


class TestOutcomes:
    def test_single_request_is_admitted_and_timed(self):
        async def go():
            async with CollectiveService(TINY) as service:
                return await service.submit("a", ar())

        response = run(go())
        assert response.outcome is Outcome.ADMITTED
        assert response.admitted
        assert response.slot == "all_reduce"
        assert response.cycle == 0
        assert response.replayed is True
        assert response.service_s > 0
        assert response.finish_s == pytest.approx(
            response.start_s + response.service_s
        )
        assert response.latency_s >= response.service_s

    def test_unserved_pattern_is_rejected_with_reason(self):
        config = default_service_config(("all_reduce",))

        async def go():
            async with CollectiveService(TINY, config) as service:
                return await service.submit(
                    "a",
                    CollectiveRequest(Collective.BROADCAST, payload_bytes=64),
                )

        response = run(go())
        assert response.outcome is Outcome.REJECTED
        assert "no slot in the cycle accepts pattern 'broadcast'" in (
            response.reason
        )

    def test_invalid_request_is_rejected_not_raised(self):
        async def go():
            async with CollectiveService(TINY) as service:
                # 3 elements cannot shard across 8 DPUs.
                return await service.submit(
                    "a",
                    CollectiveRequest(
                        Collective.REDUCE_SCATTER, payload_bytes=24
                    ),
                )

        response = run(go())
        assert response.outcome is Outcome.REJECTED
        assert "divisible" in response.reason

    def test_submit_without_start_raises(self):
        async def go():
            service = CollectiveService(TINY)
            with pytest.raises(ServiceError, match="not running"):
                await service.submit("a", ar())

        run(go())

    def test_tenant_name_must_be_non_empty(self):
        async def go():
            async with CollectiveService(TINY) as service:
                with pytest.raises(ServiceError, match="tenant name"):
                    await service.submit("", ar())

        run(go())


class TestBackpressure:
    """Bounded queue depth and explicit rejections under overload."""

    CONFIG = ServiceConfig(
        slots=(
            TimeSlotConfig(
                "all_reduce", ("all_reduce",),
                time_window_s=1e-3, max_multiplexing=2,
            ),
        ),
        switch_time_s=1e-6,
        queue_limit=4,
        default_quota=TenantQuotaConfig(max_queued=2, max_per_slot=2),
    )

    def test_overload_rejects_explicitly_and_bounds_the_queue(self):
        async def go():
            async with CollectiveService(TINY, self.CONFIG) as service:
                responses = await asyncio.gather(*(
                    service.submit(f"t{i % 3}", ar(1 + i % 4))
                    for i in range(30)
                ))
                await service.drain()
                return responses, service.stats()

        responses, stats = run(go())
        # Every submission resolved with an explicit outcome.
        assert len(responses) == 30
        assert all(
            r.outcome in (Outcome.ADMITTED, Outcome.REJECTED)
            for r in responses
        )
        rejected = [r for r in responses if r.outcome is Outcome.REJECTED]
        assert rejected, "overload must produce rejections"
        assert all(r.reason for r in rejected)
        reasons = " | ".join(r.reason for r in rejected)
        assert "over quota" in reasons or "queue full" in reasons
        # The queue never grew past its bound.
        assert stats["peak_queue_depth"] <= self.CONFIG.queue_limit
        # Conservation: nothing lost, nothing left behind.
        assert stats["submitted"] == 30
        assert stats["admitted"] + stats["rejected"] == 30
        assert stats["queued"] == 0

    def test_queue_full_reason_appears_across_tenants(self):
        async def go():
            async with CollectiveService(TINY, self.CONFIG) as service:
                responses = await asyncio.gather(*(
                    service.submit(f"t{i}", ar()) for i in range(6)
                ))
                await service.drain()
                return responses

        responses = run(go())
        reasons = [
            r.reason for r in responses if r.outcome is Outcome.REJECTED
        ]
        # 6 distinct tenants, quota 2 each: only the global bound trips.
        assert reasons and all("queue full" in reason for reason in reasons)


class TestScheduling:
    def test_oversize_request_is_served_with_recorded_overrun(self):
        config = ServiceConfig(
            slots=(
                TimeSlotConfig(
                    "all_reduce", ("all_reduce",), time_window_s=1e-9,
                ),
            ),
            switch_time_s=0.0,
        )

        async def go():
            async with CollectiveService(TINY, config) as service:
                response = await service.submit("a", ar(64))
                return response, list(service.occurrences)

        response, occurrences = run(go())
        assert response.outcome is Outcome.ADMITTED
        assert occurrences[0].consumed_s > occurrences[0].window_s

    def test_same_structure_requests_compile_once_and_replay(self):
        cache = ScheduleCache()

        async def go():
            async with CollectiveService(TINY) as service:
                await asyncio.gather(*(
                    service.submit("a", ar(k)) for k in (1, 2, 3, 4, 5)
                ))
                await service.drain()

        with use_schedule_cache(cache):
            run(go())
        counters = cache.counters
        # One structure: one profile compile, every other payload replays.
        assert counters.profile_misses == 1
        assert counters.timing_replays == 4
        assert counters.timing_fallbacks == 0

    def test_clock_advances_by_window_plus_switch(self):
        config = ServiceConfig(
            slots=(
                TimeSlotConfig(
                    "all_reduce", ("all_reduce",), time_window_s=1e-3,
                ),
            ),
            switch_time_s=100e-6,
        )

        async def go():
            async with CollectiveService(TINY, config) as service:
                await service.submit("a", ar())
                return service.stats()["now_s"], len(service.occurrences)

        now_s, occurrences = run(go())
        assert occurrences == 1
        assert now_s == pytest.approx(1e-3 + 100e-6)

    def test_close_rejects_still_queued_requests(self):
        async def go():
            service = CollectiveService(TINY)
            service.start()
            tasks = [
                asyncio.ensure_future(service.submit("a", ar()))
                for _ in range(3)
            ]
            # One pass: submissions enqueue, the scheduler has not yet
            # run an occurrence.
            await asyncio.sleep(0)
            await service.close()
            return await asyncio.gather(*tasks)

        responses = run(go())
        assert all(r.outcome is Outcome.REJECTED for r in responses)
        assert all("service closed" in r.reason for r in responses)


class TestMetrics:
    def test_latency_family_and_counters_are_populated(self):
        registry = MetricsRegistry()

        async def go():
            async with CollectiveService(TINY) as service:
                await asyncio.gather(*(
                    service.submit("alpha", ar(k)) for k in (1, 2)
                ))
                await service.submit("beta", ar())
                await service.drain()
                return service.stats()

        with use_metrics(registry):
            stats = run(go())
        assert registry.counters["service.submitted"].value == 3
        assert registry.counters["service.admitted"].value == 3
        key = instrument_key(
            "tenant.request_latency_s",
            {"substrate": SERVICE_SUBSTRATE, "tenant": "alpha"},
        )
        assert registry.histograms[key].sketch.count == 2
        assert stats["tenants"]["alpha"]["p99_s"] > 0


@st.composite
def service_cases(draw):
    arrivals = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),   # tenant
                st.integers(0, 1),   # 0: all_reduce, 1: broadcast
                st.integers(1, 16),  # elements per DPU
            ),
            min_size=1,
            max_size=24,
        )
    )
    window_us = draw(st.integers(1, 500))
    max_multiplexing = draw(st.integers(1, 2))
    max_per_slot = draw(st.integers(1, 3))
    max_queued = draw(st.integers(2, 12))
    return arrivals, window_us, max_multiplexing, max_per_slot, max_queued


class TestServiceInvariants:
    @given(case=service_cases())
    @settings(deadline=None, max_examples=25)
    def test_random_arrivals_keep_every_invariant(self, case):
        arrivals, window_us, max_multiplexing, max_per_slot, max_queued = case
        config = ServiceConfig(
            slots=(
                TimeSlotConfig(
                    "all_reduce", ("all_reduce",),
                    time_window_s=window_us * 1e-6,
                    max_multiplexing=max_multiplexing,
                ),
                TimeSlotConfig(
                    "broadcast", ("broadcast",),
                    time_window_s=window_us * 1e-6,
                    max_multiplexing=max_multiplexing,
                ),
            ),
            switch_time_s=1e-6,
            queue_limit=16,
            default_quota=TenantQuotaConfig(
                max_queued=max_queued, max_per_slot=max_per_slot
            ),
        )
        patterns = (Collective.ALL_REDUCE, Collective.BROADCAST)

        async def go():
            async with CollectiveService(TINY, config) as service:
                responses = await asyncio.gather(*(
                    service.submit(
                        f"t{tenant}",
                        CollectiveRequest(
                            patterns[pattern],
                            payload_bytes=8 * TINY_DPUS * elements,
                        ),
                    )
                    for tenant, pattern, elements in arrivals
                ))
                await service.drain()
                return responses, service.stats(), list(service.occurrences)

        responses, stats, occurrences = run(go())
        # Conservation and explicit outcomes.
        assert len(responses) == len(arrivals)
        assert stats["submitted"] == len(arrivals)
        assert stats["admitted"] + stats["rejected"] == len(arrivals)
        assert stats["queued"] == 0
        assert stats["peak_queue_depth"] <= config.queue_limit
        for response in responses:
            if response.outcome is Outcome.REJECTED:
                assert response.reason
            else:
                assert response.finish_s is not None
                assert response.latency_s >= 0
        # Occurrence invariants mirror the admission-queue contract.
        slot_by_name = {
            slot.name: slot for slot in SlotCycle(config).slots
        }
        for record in occurrences:
            slot = slot_by_name[record.slot]
            assert len(record.structures) <= slot.max_multiplexing
            per_tenant = {}
            for tenant, _, _ in record.entries:
                per_tenant[tenant] = per_tenant.get(tenant, 0) + 1
            assert all(
                count <= max_per_slot for count in per_tenant.values()
            )
            if len(record.entries) > 1:
                assert record.consumed_s <= record.window_s * (1 + 1e-9)
        # FIFO per (tenant, structure) in completion order.
        order: dict = {}
        for record in occurrences:
            for tenant, sequence, structure in record.entries:
                order.setdefault((tenant, structure), []).append(sequence)
        for sequences in order.values():
            assert sequences == sorted(sequences)
