"""Seeded fault sampling: reproducibility and common-random-numbers
nesting, the two properties the campaign layer builds on."""

import dataclasses

import pytest

from repro.config import FaultModelConfig, pimnet_sim_system, small_test_system
from repro.config.faults import FAULT_KINDS
from repro.errors import FaultConfigError, FaultError
from repro.faults import (
    FaultEvent,
    FaultSet,
    bank_name,
    chip_name,
    component_rng,
    corruption_uniforms,
    sample_fault_set,
)
from repro.faults.model import _forced_events

SYSTEM = small_test_system().system

#: High enough that a 2x2x2 machine reliably samples something.
BUSY_MODEL = FaultModelConfig(
    bank_fail_stop_rate=0.3,
    bank_straggler_rate=0.3,
    straggler_severity=4.0,
    chip_link_fail_rate=0.2,
    chip_link_degrade_rate=0.3,
    rank_bus_stall_rate=0.5,
)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown fault kind"):
            FaultEvent("bank_meltdown", "bank:0:0:0")

    def test_negative_severity_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultEvent("bank_straggler", "bank:0:0:0", severity=-1.0)


class TestFaultSetAccessors:
    def test_empty_set_is_falsy_and_not_fatal(self):
        fault_set = FaultSet(events=())
        assert not fault_set
        assert not fault_set.fatal
        assert fault_set.max_straggler_multiplier == 1.0

    def test_dead_bank_is_fatal(self):
        fault_set = FaultSet(
            events=(FaultEvent("bank_fail_stop", "bank:0:0:0"),)
        )
        assert fault_set.fatal
        assert fault_set.dead_banks == ("bank:0:0:0",)

    def test_failed_chip_link_is_fatal(self):
        fault_set = FaultSet(
            events=(FaultEvent("chip_link_failed", "chip:0:1"),)
        )
        assert fault_set.fatal
        assert fault_set.failed_chip_links == ("chip:0:1",)

    def test_stragglers_are_not_fatal(self):
        fault_set = FaultSet(
            events=(FaultEvent("bank_straggler", "bank:0:0:0", 2.0),)
        )
        assert not fault_set.fatal
        assert fault_set.straggler_multipliers == {"bank:0:0:0": 2.0}
        assert fault_set.max_straggler_multiplier == 2.0

    def test_of_kind_rejects_unknown_kind(self):
        with pytest.raises(FaultError):
            FaultSet(events=()).of_kind("gamma_ray")


class TestSamplingDeterminism:
    def test_same_seed_same_faults(self):
        a = sample_fault_set(BUSY_MODEL, SYSTEM, seed=42)
        b = sample_fault_set(BUSY_MODEL, SYSTEM, seed=42)
        assert a == b

    def test_seeds_decorrelate(self):
        draws = {
            sample_fault_set(BUSY_MODEL, SYSTEM, seed=s).events
            for s in range(20)
        }
        assert len(draws) > 1

    def test_zero_rates_sample_nothing(self):
        assert not sample_fault_set(FaultModelConfig(), SYSTEM, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultConfigError):
            component_rng(-1)

    def test_events_sorted_by_kind_then_component(self):
        events = sample_fault_set(BUSY_MODEL, SYSTEM, seed=3).events
        keys = [(e.kind, e.component) for e in events]
        assert keys == sorted(keys)

    def test_straggler_severity_within_model_bounds(self):
        for seed in range(10):
            fault_set = sample_fault_set(BUSY_MODEL, SYSTEM, seed=seed)
            for severity in fault_set.straggler_multipliers.values():
                # Draws map to the upper half of [1, severity].
                mid = 1.0 + (BUSY_MODEL.straggler_severity - 1.0) * 0.5
                assert mid <= severity <= BUSY_MODEL.straggler_severity


class TestNesting:
    """Raising a rate may only add faults — the common-random-numbers
    property that makes degradation curves monotone by construction."""

    @pytest.mark.parametrize("seed", range(8))
    def test_fault_sets_nest_as_rates_scale(self, seed):
        low = sample_fault_set(
            BUSY_MODEL.scaled(0.5), SYSTEM, seed=seed
        )
        high = sample_fault_set(BUSY_MODEL, SYSTEM, seed=seed)
        low_keys = {(e.kind, e.component) for e in low.events}
        high_keys = {(e.kind, e.component) for e in high.events}
        # chip_link_failed can displace chip_link_degraded (a failed
        # link is no longer merely degraded), so compare per component.
        for kind, component in low_keys:
            assert (kind, component) in high_keys or (
                kind == "chip_link_degraded"
                and ("chip_link_failed", component) in high_keys
            )

    def test_corruption_counts_nest_in_rate(self):
        uniforms = corruption_uniforms(seed=5, num_flits=10_000)
        counts = [
            int((uniforms < rate).sum())
            for rate in (0.0, 0.001, 0.01, 0.1)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 0

    def test_corruption_uniforms_deterministic(self):
        a = corruption_uniforms(seed=9, num_flits=128)
        b = corruption_uniforms(seed=9, num_flits=128)
        assert (a == b).all()

    def test_corruption_uniforms_negative_count_rejected(self):
        with pytest.raises(FaultError):
            corruption_uniforms(seed=0, num_flits=-1)


def _scalar_fault_set(model, system, seed, targets=()):
    """The sampler as one scalar draw per component field, in topology
    order: the oracle for the vector draw in :func:`sample_fault_set`."""
    rng = component_rng(seed)
    events = []
    for r in range(system.ranks_per_channel):
        for c in range(system.chips_per_rank):
            for b in range(system.banks_per_chip):
                u_fail = rng.random()
                u_straggle = rng.random()
                v_severity = rng.random()
                if u_fail < model.bank_fail_stop_rate:
                    events.append(
                        FaultEvent("bank_fail_stop", bank_name(r, c, b))
                    )
                if u_straggle < model.bank_straggler_rate:
                    severity = 1.0 + (model.straggler_severity - 1.0) * (
                        0.5 + 0.5 * v_severity
                    )
                    events.append(
                        FaultEvent(
                            "bank_straggler", bank_name(r, c, b), severity
                        )
                    )
    for r in range(system.ranks_per_channel):
        for c in range(system.chips_per_rank):
            u_fail = rng.random()
            u_degrade = rng.random()
            if u_fail < model.chip_link_fail_rate:
                events.append(FaultEvent("chip_link_failed", chip_name(r, c)))
            elif u_degrade < model.chip_link_degrade_rate:
                events.append(
                    FaultEvent(
                        "chip_link_degraded",
                        chip_name(r, c),
                        model.chip_link_degrade_factor,
                    )
                )
    u_bus = rng.random()
    if u_bus < model.rank_bus_stall_rate:
        events.append(FaultEvent("rank_bus_stall", "bus"))
    events.extend(_forced_events(targets, system, model))
    events.sort(key=lambda e: (e.kind, e.component))
    return FaultSet(events=tuple(dict.fromkeys(events)))


#: Small base rates: x1 samples a few faults on the default system, x50
#: fires every kind (failed and degraded chip links side by side), and
#: x1000 clamps every rate to 1.0 so each chip link fails, none degrade.
ORACLE_MODEL = FaultModelConfig(
    bank_fail_stop_rate=2e-3,
    bank_straggler_rate=5e-3,
    straggler_severity=3.0,
    chip_link_fail_rate=4e-3,
    chip_link_degrade_rate=1e-2,
    rank_bus_stall_rate=1e-2,
)
DEFAULT_SYSTEM = pimnet_sim_system().system
ONE_RANK_SYSTEM = dataclasses.replace(DEFAULT_SYSTEM, ranks_per_channel=1)
#: Fewer chips than banks per chip, so a swapped index split shows.
NARROW_SYSTEM = dataclasses.replace(DEFAULT_SYSTEM, chips_per_rank=4)
SAMPLED_KINDS = set(FAULT_KINDS) - {"flit_corruption"}


class TestVectorDrawOracle:
    """The one vector draw gives the fault sets of the scalar draws."""

    @pytest.mark.parametrize(
        "factor, kinds",
        [
            (0, set()),
            (1, None),
            (50, SAMPLED_KINDS),
            (1e3, SAMPLED_KINDS - {"chip_link_degraded"}),
        ],
    )
    @pytest.mark.parametrize(
        "system",
        [DEFAULT_SYSTEM, ONE_RANK_SYSTEM, NARROW_SYSTEM],
        ids=["default", "one-rank", "narrow"],
    )
    def test_vector_sampler_matches_scalar_draws(self, system, factor, kinds):
        model = ORACLE_MODEL.scaled(factor)
        sampled = set()
        for targets in ((), ("bank:0:1:2", "chip:0:3", "bus")):
            for seed in range(50):
                expected = _scalar_fault_set(model, system, seed, targets)
                got = sample_fault_set(model, system, seed, targets)
                assert got == expected, (seed, targets)
                if not targets:
                    sampled |= {e.kind for e in got.events}
        if kinds is not None:
            assert sampled == kinds


class TestForcedTargets:
    def test_bank_target_forces_fail_stop(self):
        fault_set = sample_fault_set(
            FaultModelConfig(), SYSTEM, seed=0, targets=("bank:0:1:0",)
        )
        assert fault_set.dead_banks == ("bank:0:1:0",)
        assert fault_set.fatal

    def test_chip_target_forces_link_failure(self):
        fault_set = sample_fault_set(
            FaultModelConfig(), SYSTEM, seed=0, targets=("chip:1:0",)
        )
        assert fault_set.failed_chip_links == ("chip:1:0",)

    def test_rank_target_kills_every_bank_of_the_rank(self):
        fault_set = sample_fault_set(
            FaultModelConfig(), SYSTEM, seed=0, targets=("rank:1",)
        )
        expected = {
            bank_name(1, c, b)
            for c in range(SYSTEM.chips_per_rank)
            for b in range(SYSTEM.banks_per_chip)
        }
        assert set(fault_set.dead_banks) == expected

    def test_bus_target_forces_stall(self):
        fault_set = sample_fault_set(
            FaultModelConfig(), SYSTEM, seed=0, targets=("bus",)
        )
        assert fault_set.bus_stalls == 1

    def test_forced_and_sampled_faults_deduplicate(self):
        always = FaultModelConfig(rank_bus_stall_rate=1.0)
        fault_set = sample_fault_set(
            always, SYSTEM, seed=0, targets=("bus",)
        )
        assert fault_set.bus_stalls == 1


class TestNames:
    def test_component_naming_scheme(self):
        assert bank_name(1, 2, 3) == "bank:1:2:3"
        assert chip_name(0, 7) == "chip:0:7"
