"""The fleet router: rendezvous assignment, retry routing, conservation.

The hypothesis block pins the assignment contract the fleet leans on:
the ranking is a stable balanced partition that is identical across
processes (SHA-256, not salted ``hash``), and removing a shard never
reorders the survivors — which is exactly why failover targets are as
stable as the primary assignment.
"""

import asyncio
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config import small_test_system
from repro.config.faults import FaultModelConfig
from repro.config.fleet import (
    FleetConfig,
    ShardOutageConfig,
    kill_shard_outage,
)
from repro.config.service import (
    ServiceConfig,
    TenantQuotaConfig,
    TimeSlotConfig,
)
from repro.errors import ConfigurationError, FleetError
from repro.fleet import (
    FleetOutcome,
    FleetRouter,
    ShardHealth,
    fleet_assignment,
    home_shard,
    shard_ranking,
)
from repro.fleet.router import _score

pytestmark = pytest.mark.fleet

TINY = small_test_system()  # 2x2x2 = 8 DPUs
TINY_DPUS = 8


def ar(elements_per_dpu: int = 8) -> CollectiveRequest:
    return CollectiveRequest(
        Collective.ALL_REDUCE,
        payload_bytes=8 * TINY_DPUS * elements_per_dpu,
    )


def service_config(queue_limit: int = 64) -> ServiceConfig:
    return ServiceConfig(
        slots=(
            TimeSlotConfig(
                "all_reduce", ("all_reduce",),
                time_window_s=500e-6, max_multiplexing=2,
            ),
        ),
        switch_time_s=20e-6,
        queue_limit=queue_limit,
        default_quota=TenantQuotaConfig(max_queued=8, max_per_slot=4),
    )


def fleet_config(shards: int = 3, **kwargs) -> FleetConfig:
    return FleetConfig(shards=shards, service=service_config(), **kwargs)


def run(coro):
    return asyncio.run(coro)


# --------------------------------------------------------------------------
# Rendezvous assignment properties.
# --------------------------------------------------------------------------

tenants_st = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=16,
)


class TestRanking:
    @given(tenant=tenants_st, shards=st.integers(1, 8), key=st.text(max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_ranking_is_a_permutation(self, tenant, shards, key):
        ranking = shard_ranking(tenant, shards, key)
        assert sorted(ranking) == list(range(shards))

    @given(tenant=tenants_st, shards=st.integers(2, 8))
    @settings(max_examples=200, deadline=None)
    def test_removing_a_shard_never_reorders_survivors(self, tenant, shards):
        # The defining HRW property: shrinking the fleet by one shard
        # drops that shard from every ranking without reordering it.
        full = shard_ranking(tenant, shards)
        smaller = shard_ranking(tenant, shards - 1)
        assert smaller == tuple(s for s in full if s != shards - 1)

    @given(tenant=tenants_st, shards=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_home_is_the_top_of_the_ranking(self, tenant, shards):
        assert home_shard(tenant, shards) == shard_ranking(tenant, shards)[0]

    @given(tenant=tenants_st, shards=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_ranking_is_stable_within_a_process(self, tenant, shards):
        assert shard_ranking(tenant, shards) == shard_ranking(tenant, shards)

    def test_assignment_is_balanced(self):
        # 2000 tenants over 5 shards: SHA-256 uniformity puts each
        # shard's load within a few sigma of 400; 300..500 is > 5 sigma.
        names = [f"tenant-{i}" for i in range(2000)]
        assignment = fleet_assignment(names, 5)
        loads = [0] * 5
        for home in assignment.values():
            loads[home] += 1
        assert sum(loads) == 2000
        assert all(300 <= load <= 500 for load in loads), loads

    def test_assignment_survives_interpreter_restarts(self):
        # Python's salted str hash would shift the partition between
        # processes; SHA-256 must not.  Compare against a subprocess
        # launched with a different, explicit PYTHONHASHSEED.
        names = [f"tenant-{i}" for i in range(32)]
        local = fleet_assignment(names, 4)
        code = (
            "import json, sys\n"
            "from repro.fleet import fleet_assignment\n"
            "names = [f'tenant-{i}' for i in range(32)]\n"
            "print(json.dumps(fleet_assignment(names, 4)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(out.stdout) == local

    def test_bad_inputs_raise(self):
        with pytest.raises(FleetError):
            shard_ranking("a", 0)
        with pytest.raises(FleetError):
            shard_ranking("", 3)


# --------------------------------------------------------------------------
# Config validation.
# --------------------------------------------------------------------------

class TestFleetConfig:
    def test_outage_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=2, outages=(kill_shard_outage(2, 10),))

    def test_duplicate_outage_shard_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(
                shards=3,
                outages=(kill_shard_outage(1, 5), kill_shard_outage(1, 9)),
            )

    def test_revive_at(self):
        assert kill_shard_outage(0, 10).revive_at is None
        assert kill_shard_outage(0, 10, 6).revive_at == 16

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(shards=0)


# --------------------------------------------------------------------------
# Routing end-to-end on a tiny machine.
# --------------------------------------------------------------------------

class TestRouting:
    def test_clean_submit_is_admitted_on_home(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                response = await fleet.submit("a", ar())
                await fleet.drain()
                return response, fleet.stats()

        response, stats = run(go())
        assert response.outcome is FleetOutcome.ADMITTED
        assert response.shard == response.home == home_shard("a", 3)
        assert response.attempts == (response.home,)
        assert response.latency_s is not None and response.latency_s > 0
        assert stats["admitted"] == 1 and stats["reroutes"] == 0

    def test_killed_home_reroutes_to_next_in_ranking(self):
        tenant = "a"
        home = home_shard(tenant, 3)
        backup = shard_ranking(tenant, 3)[1]

        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                await fleet.inject_outage(kill_shard_outage(home, 0))
                response = await fleet.submit(tenant, ar())
                await fleet.drain()
                return response, fleet.health.state(home)

        response, state = run(go())
        assert state is ShardHealth.DOWN
        assert response.outcome is FleetOutcome.REROUTED
        assert response.home == home
        assert response.shard == backup
        assert response.admitted

    def test_revive_restores_the_home_shard(self):
        tenant = "a"
        home = home_shard(tenant, 3)

        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                await fleet.inject_outage(kill_shard_outage(home, 0))
                rerouted = await fleet.submit(tenant, ar())
                await fleet.revive_shard(home)
                restored = await fleet.submit(tenant, ar())
                await fleet.drain()
                generation = fleet.shards[home].generation
                return rerouted, restored, generation

        rerouted, restored, generation = run(go())
        assert rerouted.outcome is FleetOutcome.REROUTED
        assert restored.outcome is FleetOutcome.ADMITTED
        assert restored.shard == home
        assert generation == 1  # fresh service after the kill

    def test_all_shards_down_fails_explicitly(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                for shard in range(3):
                    await fleet.inject_outage(kill_shard_outage(shard, 0))
                response = await fleet.submit("a", ar())
                fleet.check_conservation()
                return response

        response = run(go())
        assert response.outcome is FleetOutcome.FAILED
        assert response.shard is None
        assert response.attempts == ()
        assert "no serving shard" in response.reason

    def test_invalid_request_rejected_at_the_fleet_edge(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                # A root beyond the machine is invalid on every
                # identical shard, so no retry is burned.
                return await fleet.submit(
                    "a",
                    CollectiveRequest(
                        Collective.ALL_REDUCE, payload_bytes=64, root=99
                    ),
                )

        response = run(go())
        assert response.outcome is FleetOutcome.REJECTED
        assert response.attempts == ()

    def test_unserved_pattern_rejected_at_the_fleet_edge(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                return await fleet.submit(
                    "a",
                    CollectiveRequest(
                        Collective.BROADCAST, payload_bytes=64
                    ),
                )

        response = run(go())
        assert response.outcome is FleetOutcome.REJECTED
        assert "broadcast" in response.reason

    def test_scheduled_outage_triggers_on_submission_count(self):
        tenant = "a"
        home = home_shard(tenant, 3)
        config = fleet_config(
            outages=(kill_shard_outage(home, 3, 3),)
        )

        async def go():
            async with FleetRouter(config, TINY) as fleet:
                outcomes = []
                for _ in range(9):
                    outcomes.append((await fleet.submit(tenant, ar())).outcome)
                await fleet.drain()
                return outcomes, fleet.stats()

        outcomes, stats = run(go())
        # The kill fires during the submit that brings the fleet
        # counter to 3 (submission index 2); the revive three later.
        assert outcomes[:2] == [FleetOutcome.ADMITTED] * 2
        assert outcomes[2:5] == [FleetOutcome.REROUTED] * 3
        assert outcomes[5:] == [FleetOutcome.ADMITTED] * 4
        transitions = stats["transitions"]
        assert [t["new"] for t in transitions] == ["down", "healthy"]
        assert [t["at_submission"] for t in transitions] == [3, 6]

    def test_submit_before_start_raises(self):
        fleet = FleetRouter(fleet_config(), TINY)
        with pytest.raises(FleetError):
            run(fleet.submit("a", ar()))

    def test_conservation_accounts_for_every_outcome(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                await fleet.submit("a", ar())
                await fleet.submit(
                    "a",
                    CollectiveRequest(
                        Collective.ALL_REDUCE, payload_bytes=64, root=99
                    ),
                )
                await fleet.drain()
                stats = fleet.stats()  # calls check_conservation
                return stats

        stats = run(go())
        assert stats["submitted"] == 2
        assert (
            stats["admitted"] + stats["rerouted"]
            + stats["rejected"] + stats["failed"]
        ) == 2

    def test_merged_metrics_fold_fleet_and_shard_families(self):
        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                for _ in range(4):
                    await fleet.submit("a", ar())
                await fleet.drain()
                return fleet.merged_metrics()

        merged = run(go())
        assert merged.counter("fleet.submitted").value == 4
        assert merged.counter("fleet.admitted").value == 4
        label = {"shard": f"shard-{home_shard('a', 3)}"}
        assert merged.counter("fleet.shard.admitted", label).value == 4


# --------------------------------------------------------------------------
# FIFO preservation under rerouting.
# --------------------------------------------------------------------------

class TestTenantFifo:
    @given(
        seed=st.integers(0, 2**16),
        kill_after=st.integers(0, 12),
        duration=st.integers(0, 8),
    )
    @settings(max_examples=8, deadline=None)
    def test_reroute_never_reorders_a_tenant_stream(
        self, seed, kill_after, duration
    ):
        # One tenant submits sequentially while its home shard dies and
        # (maybe) revives mid-stream.  Per shard *generation* (a revive
        # restarts the simulated clock), the tenant's admitted requests
        # must start service in submission order — rerouting moves the
        # stream, it never shuffles it.
        tenant = "fifo-tenant"
        home = home_shard(tenant, 3)
        config = fleet_config(
            outages=(
                ShardOutageConfig(
                    shard=home,
                    after_submissions=kill_after,
                    duration_submissions=duration,
                    seed=seed,
                ),
            )
        )

        async def go():
            async with FleetRouter(config, TINY) as fleet:
                responses = []
                for _ in range(16):
                    responses.append(await fleet.submit(tenant, ar(4)))
                await fleet.drain()
                fleet.check_conservation()
                return responses

        responses = run(go())
        assert [r.sequence for r in responses] == sorted(
            r.sequence for r in responses
        )
        assert all(r.outcome in FleetOutcome for r in responses)
        per_shard: dict[tuple[int, int], list[float]] = {}
        for response in responses:
            if not response.admitted:
                continue
            group = (response.shard, response.generation)
            per_shard.setdefault(group, []).append(
                response.response.start_s
            )
        for group, starts in per_shard.items():
            assert starts == sorted(starts), f"shard {group} reordered"


# --------------------------------------------------------------------------
# The per-request fast paths: memoized ranking and route order, lazily
# bound metric children.
# --------------------------------------------------------------------------

#: The instruments of ``one_outage_run``, per registry (fleet first,
#: then shard 0..2) in creation order.  Metric handles must be bound on
#: first use: binding them up front adds or reorders entries here.
SNAPSHOT_ORDER = [
    ["fleet.submitted", "fleet.admitted", "fleet.rerouted",
     "fleet.rejected", "fleet.failed", "fleet.reroutes"],
    ["fleet.shard.submitted{shard=shard-0}",
     "fleet.shard.rejected{shard=shard-0}",
     "fleet.shard.admitted{shard=shard-0}",
     "fleet.request_latency_s{shard=shard-0,tenant=a}"],
    ["fleet.shard.submitted{shard=shard-1}",
     "fleet.shard.admitted{shard=shard-1}",
     "fleet.request_latency_s{shard=shard-1,tenant=a}"],
    ["fleet.shard.submitted{shard=shard-2}",
     "fleet.shard.admitted{shard=shard-2}",
     "fleet.request_latency_s{shard=shard-2,tenant=b}",
     "fleet.request_latency_s{shard=shard-2,tenant=c}"],
]
#: SHA-256 of ``json.dumps(merged_metrics().to_dict())`` for the same run.
SNAPSHOT_SHA256 = (
    "c8a52d6356e74e43b9190ba1bc69d5798aa17eb1de0d022aa453735c02894cbd"
)


def one_outage_run():
    """Four clients of three tenants; tenant a's home dies at 4, back at 8."""
    config = FleetConfig(
        shards=3,
        service=service_config(),
        outages=(kill_shard_outage(home_shard("a", 3), 4, 4),),
    )

    async def go():
        async with FleetRouter(config, TINY) as fleet:
            async def client(tenant):
                for i in range(6):
                    await fleet.submit(tenant, ar(1 + i % 3))

            await asyncio.gather(*(client(t) for t in ("a", "b", "a", "c")))
            await fleet.drain()
            registries = [fleet.registry] + [s.registry for s in fleet.shards]
            order = [
                list(r.counters) + list(r.histograms) for r in registries
            ]
            return fleet.merged_metrics().to_dict(), order

    return run(go())


class TestFastPaths:
    def test_memoized_ranking_equals_a_direct_score_sort(self):
        rng = random.Random(7)
        triples = [
            (f"t{rng.randrange(40)}", rng.randint(1, 8),
             rng.choice(["", "k0", "k1", "key"]))
            for _ in range(400)
        ]
        assert len(set(triples)) >= 200
        for tenant, shards, key in triples:
            direct = tuple(
                sorted(
                    range(shards),
                    key=lambda s: (-_score(tenant, key, s), s),
                )
            )
            # Twice: the first call may fill the memo, the second reads it.
            assert shard_ranking(tenant, shards, key) == direct
            assert shard_ranking(tenant, shards, key) == direct

    def test_bad_input_raises_after_a_cache_hit(self):
        assert shard_ranking("a", 3) == shard_ranking("a", 3)
        # 3.0 == 3 and hashes alike, so only validation ahead of the
        # memo lookup keeps a float shard count from hitting the cache.
        with pytest.raises(FleetError):
            shard_ranking("a", 3.0)
        with pytest.raises(FleetError):
            shard_ranking("a", 0)
        with pytest.raises(FleetError):
            shard_ranking("", 3)

    def test_health_changes_reach_the_very_next_submit(self):
        tenant = "a"
        ranking = shard_ranking(tenant, 3)
        home, backup = ranking[0], ranking[1]
        degrade = ShardOutageConfig(
            shard=home,
            after_submissions=0,
            model=FaultModelConfig(
                bank_straggler_rate=1.0, straggler_severity=2.0
            ),
        )

        async def go():
            async with FleetRouter(fleet_config(), TINY) as fleet:
                before = await fleet.submit(tenant, ar())
                state = await fleet.inject_outage(degrade)
                degraded = await fleet.submit(tenant, ar())
                order = fleet.route_order(tenant)
                await fleet.revive_shard(home)
                revived = await fleet.submit(tenant, ar())
                await fleet.drain()
                return before, state, degraded, order, revived

        before, state, degraded, order, revived = run(go())
        assert state is ShardHealth.DEGRADED
        assert before.attempts == (home,)
        assert degraded.attempts == (backup,)
        assert degraded.outcome is FleetOutcome.REROUTED
        assert order == ranking[1:] + (home,)
        assert revived.attempts == (home,)
        assert revived.outcome is FleetOutcome.ADMITTED

    def test_metric_children_are_bound_lazily(self):
        merged, order = one_outage_run()
        assert order == SNAPSHOT_ORDER
        digest = hashlib.sha256(json.dumps(merged).encode()).hexdigest()
        assert digest == SNAPSHOT_SHA256


class TestDefaults:
    def test_default_fleet_config_shape(self):
        config = FleetConfig()
        assert config.shards == 3
        assert config.max_reroutes == 2
        assert config.outages == ()
