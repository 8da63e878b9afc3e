"""Closed-form resilience engine: statuses, costs, and the zero-fault
no-op guarantee."""

import math

import pytest

from repro.collectives import COLLECTIVE_STATUSES
from repro.collectives.backend import registry
from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config import FaultModelConfig, small_test_system
from repro.config.units import NOC_FLIT_BYTES
from repro.faults import FaultSet, collective_under_faults

PAYLOAD = 1 << 16


@pytest.fixture
def machine():
    return small_test_system()


def base_time(machine, payload=PAYLOAD):
    bk = registry.create("P", machine)
    return bk.timing(
        CollectiveRequest(Collective("all_reduce"), payload)
    ).total_s


class TestZeroFaultNoOp:
    def test_empty_model_reproduces_backend_timing_exactly(self, machine):
        result = collective_under_faults(
            machine, FaultModelConfig(), seed=0, payload_bytes=PAYLOAD
        )
        assert result.status == "completed"
        assert result.retries == 0
        assert result.fault_time_s == 0.0
        assert result.critical_node == ""
        assert result.time_s == base_time(machine)

    def test_explicit_empty_fault_set_is_a_no_op(self, machine):
        result = collective_under_faults(
            machine,
            FaultModelConfig(bank_straggler_rate=1.0),
            seed=0,
            payload_bytes=PAYLOAD,
            fault_set=FaultSet(events=()),
        )
        assert result.status == "completed"
        assert result.time_s == base_time(machine)


class TestDeterminism:
    def test_same_inputs_same_result(self, machine):
        model = FaultModelConfig(
            bank_straggler_rate=0.5,
            straggler_severity=3.0,
            flit_corruption_rate=0.001,
        )
        a = collective_under_faults(machine, model, 7, PAYLOAD)
        b = collective_under_faults(machine, model, 7, PAYLOAD)
        assert a == b


class TestStragglers:
    def test_straggler_degrades_and_names_the_culprit(self, machine):
        model = FaultModelConfig(
            bank_straggler_rate=1.0, straggler_severity=4.0
        )
        result = collective_under_faults(machine, model, 1, PAYLOAD)
        assert result.status == "degraded"
        assert result.time_s > base_time(machine)
        assert result.fault_time_s > 0
        assert result.critical_node.startswith("bank:")

    def test_critical_node_is_the_slowest_straggler(self, machine):
        model = FaultModelConfig(
            bank_straggler_rate=1.0, straggler_severity=4.0
        )
        result = collective_under_faults(machine, model, 1, PAYLOAD)
        from repro.faults import sample_fault_set

        fault_set = sample_fault_set(model, machine.system, 1)
        worst = max(
            sorted(fault_set.straggler_multipliers),
            key=lambda n: fault_set.straggler_multipliers[n],
        )
        assert result.critical_node == worst


class TestAbort:
    def test_dead_bank_aborts_with_detection_cost(self, machine):
        model = FaultModelConfig()
        result = collective_under_faults(
            machine, model, 0, PAYLOAD, targets=("bank:0:0:1",)
        )
        assert result.status == "aborted"
        assert not result.completed
        assert result.critical_node == "bank:0:0:1"
        assert result.retries == model.max_retries
        detection = (model.max_retries + 1) * model.sync_timeout_s
        assert result.time_s >= base_time(machine) + detection

    def test_failed_chip_link_aborts(self, machine):
        result = collective_under_faults(
            machine, FaultModelConfig(), 0, PAYLOAD, targets=("chip:1:1",)
        )
        assert result.status == "aborted"
        assert result.critical_node == "chip:1:1"


class TestCostModels:
    def test_bus_stall_adds_to_inter_rank_tier(self, machine):
        model = FaultModelConfig(
            rank_bus_stall_rate=1.0, rank_bus_stall_s=5e-6
        )
        clean = collective_under_faults(
            machine, FaultModelConfig(), 0, PAYLOAD
        )
        stalled = collective_under_faults(machine, model, 0, PAYLOAD)
        extra = (
            stalled.breakdown.inter_rank_s - clean.breakdown.inter_rank_s
        )
        assert extra == pytest.approx(5e-6)

    def test_corruption_charges_retries_on_inter_bank_tier(self, machine):
        model = FaultModelConfig(flit_corruption_rate=0.01)
        result = collective_under_faults(machine, model, 3, PAYLOAD)
        assert result.retries > 0
        assert result.status == "degraded"
        assert (
            result.breakdown.inter_bank_s
            > collective_under_faults(
                machine, FaultModelConfig(), 3, PAYLOAD
            ).breakdown.inter_bank_s
        )

    @pytest.mark.parametrize("payload", [PAYLOAD, PAYLOAD + 8])
    def test_corruption_trials_are_noc_sized_flits(self, machine, payload):
        model = FaultModelConfig(flit_corruption_rate=1.0)
        result = collective_under_faults(machine, model, 0, payload)
        assert result.retries == math.ceil(payload / NOC_FLIT_BYTES)

    def test_degraded_chip_link_stretches_inter_chip_tier(self, machine):
        model = FaultModelConfig(
            chip_link_degrade_rate=1.0, chip_link_degrade_factor=3.0
        )
        clean = collective_under_faults(
            machine, FaultModelConfig(), 0, PAYLOAD
        )
        slow = collective_under_faults(machine, model, 0, PAYLOAD)
        assert slow.breakdown.inter_chip_s == pytest.approx(
            3.0 * clean.breakdown.inter_chip_s
        )


class TestMonotonicity:
    def test_time_non_decreasing_in_rate_factor(self, machine):
        base = FaultModelConfig(
            bank_straggler_rate=0.2,
            straggler_severity=2.0,
            rank_bus_stall_rate=0.3,
            flit_corruption_rate=0.002,
        )
        times = [
            collective_under_faults(
                machine, base.scaled(f), 5, PAYLOAD
            ).time_s
            for f in (0.0, 0.5, 1.0, 2.0)
        ]
        assert times == sorted(times)


class TestStatusVocabulary:
    def test_engine_only_emits_known_statuses(self, machine):
        model = FaultModelConfig(
            bank_fail_stop_rate=0.3,
            bank_straggler_rate=0.3,
            straggler_severity=2.0,
        )
        for seed in range(10):
            result = collective_under_faults(machine, model, seed, PAYLOAD)
            assert result.status in COLLECTIVE_STATUSES
