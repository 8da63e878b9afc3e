"""Every numeric config field rejects non-numbers and non-finite values.

Walks every dataclass ``repro.config`` exports and every field annotated
``int`` or ``float``: a bare ``value <= 0`` range check lets NaN through
(every comparison with NaN is false) and treats ``True`` as 1, so each
field must reject them through the shared check, raising the class's
own error type.
"""

import dataclasses
import math

import pytest

import repro.config as config
from repro.errors import ConfigurationError, ConformanceError, FaultConfigError

#: Valid values for the fields a class requires.
REQUIRED = {
    config.ComputeProfile: {"name": "p"},
    config.FaultCampaignConfig: {"name": "c"},
    config.ServiceConfig: {"slots": (config.TimeSlotConfig("s"),)},
    config.ShardOutageConfig: {"shard": 0, "after_submissions": 0},
    config.TierLinkConfig: {
        "name": "t", "num_channels": 1, "width_bits": 1,
        "bandwidth_per_channel_bytes_per_s": 1.0, "hop_latency_s": 0.0,
    },
    config.TimeSlotConfig: {"name": "s"},
}

ERRORS = {
    config.ConformanceConfig: ConformanceError,
    config.FaultCampaignConfig: FaultConfigError,
    config.FaultModelConfig: FaultConfigError,
}

NUMERIC = {"int", "float", "int | None", "float | None"}

CASES = [
    (cls, f.name)
    for cls in (getattr(config, name) for name in config.__all__)
    if isinstance(cls, type) and dataclasses.is_dataclass(cls)
    for f in dataclasses.fields(cls)
    if f.type in NUMERIC
]


def test_every_exported_config_builds_from_its_required_fields():
    for cls in {cls for cls, _ in CASES}:
        cls(**REQUIRED.get(cls, {}))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1"],
                         ids=repr)
@pytest.mark.parametrize(
    "cls,field", CASES, ids=[f"{c.__name__}.{f}" for c, f in CASES]
)
def test_numeric_field_rejects(cls, field, bad):
    with pytest.raises(ERRORS.get(cls, ConfigurationError)):
        cls(**{**REQUIRED.get(cls, {}), field: bad})
