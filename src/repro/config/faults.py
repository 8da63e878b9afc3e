"""Fault-model and campaign configuration (plain data, eagerly validated).

Like :class:`TraceConfig` and :class:`RunnerConfig`, these dataclasses
are pure configuration: the CLI and library callers thread them around
without importing the fault-injection machinery in
:mod:`repro.faults`.  Validation is eager — a rate outside [0, 1] or a
campaign target naming a component outside the machine topology fails
where the spec is built, not later inside a sweep point.

Component names follow the NoC router convention:

* ``bank:{rank}:{chip}:{bank}`` — one bank (DPU);
* ``chip:{rank}:{chip}`` — one chip and its DQ link to the crossbar;
* ``rank:{rank}`` — one rank;
* ``bus`` — the shared inter-rank DDR bus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import FaultConfigError
from .system import PimSystemConfig
from .units import JsonForm, check_number

#: Fault kinds the engine knows how to sample and inject.
FAULT_KINDS = (
    "bank_fail_stop",
    "bank_straggler",
    "chip_link_degraded",
    "chip_link_failed",
    "rank_bus_stall",
    "flit_corruption",
)

#: Fields of :class:`FaultModelConfig` that are probabilities in [0, 1].
_RATE_FIELDS = (
    "bank_fail_stop_rate",
    "bank_straggler_rate",
    "chip_link_fail_rate",
    "chip_link_degrade_rate",
    "rank_bus_stall_rate",
    "flit_corruption_rate",
)


@dataclass(frozen=True)
class FaultModelConfig(JsonForm):
    """Per-tier fault rates and severities for one campaign.

    Rates are independent per-component probabilities; severities are
    multipliers (>= 1) applied to affected components.  All zeros — the
    default — is the ideal fault-free machine, on which
    :func:`repro.faults.collective_under_faults` returns the fault-free
    result unchanged.
    """

    json_noun = "fault model"
    json_error = FaultConfigError

    #: Probability a bank (DPU) is dead for the whole run (fail-stop).
    bank_fail_stop_rate: float = 0.0
    #: Probability a bank is a straggler (slow but alive).
    bank_straggler_rate: float = 0.0
    #: Timing-jitter multiplier for the slowest straggler (>= 1).
    straggler_severity: float = 1.0
    #: Probability a chip's DQ link has failed outright.
    chip_link_fail_rate: float = 0.0
    #: Probability a chip's DQ link is degraded (marginal pins).
    chip_link_degrade_rate: float = 0.0
    #: Serialization multiplier on a degraded link (>= 1).
    chip_link_degrade_factor: float = 2.0
    #: Probability the inter-rank bus stalls during the collective.
    rank_bus_stall_rate: float = 0.0
    #: Duration of one bus stall, in seconds.
    rank_bus_stall_s: float = 1e-6
    #: Per-flit transient corruption probability.
    flit_corruption_rate: float = 0.0
    #: Detection + retransmission cost of one corrupted flit, in flit
    #: serialization times.
    retry_penalty_flits: int = 2
    #: READY/START sync-tree timeout (seconds); a fail-stopped bank is
    #: detected when its READY never arrives within this window.
    sync_timeout_s: float = 100e-6
    #: Abort retries: how many timeout rounds the controller spends
    #: before declaring the collective aborted.
    max_retries: int = 3

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            check_number(
                getattr(self, name), f"{name} (a probability)",
                FaultConfigError, at_least=0.0, at_most=1.0,
            )
        for name in ("straggler_severity", "chip_link_degrade_factor"):
            check_number(
                getattr(self, name), f"{name} (a slowdown multiplier)",
                FaultConfigError, at_least=1.0,
            )
        check_number(self.rank_bus_stall_s, "rank_bus_stall_s",
                     FaultConfigError, at_least=0)
        check_number(self.retry_penalty_flits, "retry_penalty_flits",
                     FaultConfigError, integer=True, at_least=0)
        check_number(self.sync_timeout_s, "sync_timeout_s",
                     FaultConfigError, above=0)
        check_number(self.max_retries, "max_retries", FaultConfigError,
                     integer=True, at_least=0)

    def scaled(self, rate_factor: float) -> "FaultModelConfig":
        """All rates multiplied by ``rate_factor`` (clamped to 1.0).

        Campaign sweeps use this to turn one model into a fault-rate
        axis; severities are left untouched so the sweep varies *how
        many* components fail, not how badly.
        """
        check_number(rate_factor, "rate_factor", FaultConfigError, at_least=0)
        from dataclasses import replace

        return replace(
            self,
            **{
                name: min(1.0, getattr(self, name) * rate_factor)
                for name in _RATE_FIELDS
            },
        )


@dataclass(frozen=True)
class FaultCampaignConfig(JsonForm):
    """One resilience campaign: a fault model plus how to exercise it.

    A campaign is reproducible from ``(seed, machine config, this
    spec)`` alone — trials derive their RNG streams from ``seed`` and
    the trial index, never from wall-clock state.  ``targets``
    optionally pins the faults to named components instead of sampling;
    every target must exist in the machine the campaign is bound to
    (checked by :meth:`validate_for`).  :meth:`from_dict` reads the JSON
    file form of ``docs/FAULTS.md``.
    """

    json_noun = "campaign spec"
    json_error = FaultConfigError

    name: str
    model: FaultModelConfig = field(default_factory=FaultModelConfig)
    seed: int = 0
    trials: int = 32
    payload_bytes: int = 1 << 20
    collective: str = "all_reduce"
    backend: str = "P"
    targets: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise FaultConfigError("campaign name must be non-empty")
        check_number(self.seed, "seed", FaultConfigError, integer=True,
                     at_least=0)
        check_number(self.trials, "trials", FaultConfigError, integer=True,
                     at_least=1)
        check_number(self.payload_bytes, "payload_bytes", FaultConfigError,
                     integer=True, at_least=1)
        for target in self.targets:
            _parse_target(target)

    def validate_for(self, system: PimSystemConfig) -> None:
        """Reject targets that name components outside ``system``.

        Eager, like :class:`ExperimentTable` width validation: a
        campaign bound to the wrong machine fails here, before any
        sweep point runs.
        """
        for target in self.targets:
            kind, coords = _parse_target(target)
            limits = {
                "bank": (
                    system.ranks_per_channel,
                    system.chips_per_rank,
                    system.banks_per_chip,
                ),
                "chip": (
                    system.ranks_per_channel,
                    system.chips_per_rank,
                ),
                "rank": (system.ranks_per_channel,),
                "bus": (),
            }[kind]
            for axis, (value, limit) in enumerate(zip(coords, limits)):
                if not 0 <= value < limit:
                    raise FaultConfigError(
                        f"campaign {self.name!r}: target {target!r} "
                        f"coordinate {value} out of range [0, {limit}) "
                        f"on axis {axis} of the machine topology"
                    )


def _parse_target(target: str) -> tuple[str, tuple[int, ...]]:
    """Split ``"bank:0:1:2"`` into its kind and integer coordinates."""
    parts = target.split(":")
    kind = parts[0]
    expected = {"bank": 3, "chip": 2, "rank": 1, "bus": 0}
    if kind not in expected:
        raise FaultConfigError(
            f"unknown fault target kind {kind!r} in {target!r} "
            f"(expected one of {sorted(expected)})"
        )
    if len(parts) - 1 != expected[kind]:
        raise FaultConfigError(
            f"target {target!r} needs {expected[kind]} coordinate(s) "
            f"for kind {kind!r}, got {len(parts) - 1}"
        )
    try:
        coords = tuple(int(p) for p in parts[1:])
    except ValueError as exc:
        raise FaultConfigError(
            f"non-integer coordinate in fault target {target!r}"
        ) from exc
    if any(c < 0 for c in coords):
        raise FaultConfigError(
            f"negative coordinate in fault target {target!r}"
        )
    return kind, coords
