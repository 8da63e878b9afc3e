"""Fault-model and campaign configuration: eager validation."""

from dataclasses import fields

import pytest

from repro.config import (
    FaultCampaignConfig,
    FaultModelConfig,
    small_test_system,
)
from repro.errors import FaultConfigError


def fault_free(model: FaultModelConfig) -> bool:
    """Whether ``model`` can never inject anything: every rate is 0."""
    return all(
        getattr(model, f.name) == 0.0
        for f in fields(model)
        if f.name.endswith("_rate")
    )


class TestFaultModelValidation:
    def test_defaults_are_fault_free(self):
        model = FaultModelConfig()
        assert fault_free(model)

    @pytest.mark.parametrize("name", [
        "bank_fail_stop_rate",
        "bank_straggler_rate",
        "chip_link_fail_rate",
        "chip_link_degrade_rate",
        "rank_bus_stall_rate",
        "flit_corruption_rate",
    ])
    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_rates_must_be_probabilities(self, name, value):
        with pytest.raises(FaultConfigError, match="probability"):
            FaultModelConfig(**{name: value})

    @pytest.mark.parametrize("name", [
        "straggler_severity", "chip_link_degrade_factor",
    ])
    def test_severities_below_one_rejected(self, name):
        with pytest.raises(FaultConfigError, match=">= 1"):
            FaultModelConfig(**{name: 0.5})

    def test_negative_stall_duration_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultModelConfig(rank_bus_stall_s=-1e-6)

    def test_negative_retry_penalty_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultModelConfig(retry_penalty_flits=-1)

    def test_nonpositive_sync_timeout_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultModelConfig(sync_timeout_s=0.0)

    def test_negative_max_retries_rejected(self):
        with pytest.raises(FaultConfigError):
            FaultModelConfig(max_retries=-1)

    def test_any_nonzero_rate_is_not_fault_free(self):
        assert not fault_free(FaultModelConfig(bank_straggler_rate=0.1))

    def test_nan_rates_rejected(self):
        # `0 <= nan <= 1` is false, so the rate check already trips;
        # pinned here so a refactor cannot regress it.
        with pytest.raises(FaultConfigError):
            FaultModelConfig(flit_corruption_rate=float("nan"))

    @pytest.mark.parametrize("name", [
        "straggler_severity", "chip_link_degrade_factor",
        "rank_bus_stall_s", "sync_timeout_s",
    ])
    def test_nan_and_inf_durations_rejected(self, name):
        # NaN used to pass the bare `< 1` / `< 0` checks (all NaN
        # comparisons are false) and poison campaign cost models.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(FaultConfigError):
                FaultModelConfig(**{name: bad})


class TestFaultModelScaled:
    def test_scales_every_rate(self):
        model = FaultModelConfig(
            bank_straggler_rate=0.1, rank_bus_stall_rate=0.2
        )
        doubled = model.scaled(2.0)
        assert doubled.bank_straggler_rate == pytest.approx(0.2)
        assert doubled.rank_bus_stall_rate == pytest.approx(0.4)

    def test_clamps_to_one(self):
        model = FaultModelConfig(bank_straggler_rate=0.6)
        assert model.scaled(10.0).bank_straggler_rate == 1.0

    def test_zero_factor_is_fault_free(self):
        model = FaultModelConfig(
            bank_fail_stop_rate=0.5, flit_corruption_rate=0.5
        )
        assert fault_free(model.scaled(0.0))

    def test_severities_untouched(self):
        model = FaultModelConfig(
            bank_straggler_rate=0.1, straggler_severity=4.0
        )
        assert model.scaled(3.0).straggler_severity == 4.0

    @pytest.mark.parametrize(
        "factor", [-1.0, float("nan"), float("inf"), True, "2"]
    )
    def test_negative_factor_rejected(self, factor):
        with pytest.raises(FaultConfigError):
            FaultModelConfig(bank_straggler_rate=0.1).scaled(factor)


class TestFaultModelSerialization:
    def test_roundtrip(self):
        model = FaultModelConfig(
            bank_straggler_rate=0.25, straggler_severity=3.0
        )
        assert FaultModelConfig.from_dict(model.as_dict()) == model

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown fault model"):
            FaultModelConfig.from_dict({"bank_melt_rate": 0.1})


class TestCampaignValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(FaultConfigError, match="name"):
            FaultCampaignConfig(name="")

    def test_negative_seed_rejected(self):
        with pytest.raises(FaultConfigError, match="seed"):
            FaultCampaignConfig(name="c", seed=-1)

    def test_zero_trials_rejected(self):
        with pytest.raises(FaultConfigError, match="trial"):
            FaultCampaignConfig(name="c", trials=0)

    def test_zero_payload_rejected(self):
        with pytest.raises(FaultConfigError, match="payload"):
            FaultCampaignConfig(name="c", payload_bytes=0)

    @pytest.mark.parametrize("target,message", [
        ("dimm:0", "unknown fault target kind"),
        ("bank:0:1", "coordinate"),
        ("bus:3", "coordinate"),
        ("bank:0:x:1", "non-integer"),
        ("chip:-1:0", "negative"),
    ])
    def test_malformed_targets_rejected_at_construction(
        self, target, message
    ):
        with pytest.raises(FaultConfigError, match=message):
            FaultCampaignConfig(name="c", targets=(target,))


class TestCampaignValidateFor:
    """Satellite: specs naming components outside the machine topology
    are rejected eagerly, before any sweep point runs."""

    def test_in_range_targets_accepted(self):
        campaign = FaultCampaignConfig(
            name="c",
            targets=("bank:1:1:1", "chip:0:1", "rank:1", "bus"),
        )
        campaign.validate_for(small_test_system().system)  # no raise

    @pytest.mark.parametrize("target", [
        "bank:2:0:0",   # rank axis out of range on a 2x2x2 machine
        "bank:0:2:0",   # chip axis
        "bank:0:0:2",   # bank axis
        "chip:0:2",
        "rank:2",
    ])
    def test_out_of_topology_targets_rejected(self, target):
        campaign = FaultCampaignConfig(name="c", targets=(target,))
        with pytest.raises(FaultConfigError, match="out of range"):
            campaign.validate_for(small_test_system().system)


class TestCampaignFromDict:
    def test_full_spec_roundtrip(self):
        campaign = FaultCampaignConfig.from_dict({
            "name": "bathtub",
            "seed": 7,
            "trials": 4,
            "payload_bytes": 4096,
            "targets": ["bus"],
            "model": {"bank_straggler_rate": 0.5,
                      "straggler_severity": 2.0},
        })
        assert campaign.name == "bathtub"
        assert campaign.seed == 7
        assert campaign.targets == ("bus",)
        assert campaign.model.bank_straggler_rate == 0.5

    def test_unknown_campaign_field_rejected(self):
        with pytest.raises(FaultConfigError, match="unknown campaign"):
            FaultCampaignConfig.from_dict({"name": "c", "warp": 9})

    def test_non_object_spec_rejected(self):
        with pytest.raises(FaultConfigError, match="JSON object"):
            FaultCampaignConfig.from_dict(["nope"])

    def test_non_object_model_rejected(self):
        with pytest.raises(FaultConfigError, match="'model'"):
            FaultCampaignConfig.from_dict({"name": "c", "model": 3})

    def test_missing_name_surfaces_as_config_error(self):
        with pytest.raises(FaultConfigError, match="invalid campaign"):
            FaultCampaignConfig.from_dict({"trials": 4})
