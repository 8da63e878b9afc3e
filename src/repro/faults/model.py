"""Deterministic fault sampling: (seed, machine, spec) -> FaultSet.

The sampler is built for *campaign sweeps*: uniform draws are made for
every component in a fixed topology order regardless of the configured
rates, and a component is faulty at rate ``r`` exactly when its draw
falls below ``r``.  Two consequences, both load-bearing:

* **Reproducibility** — the same ``(seed, machine shape, model)``
  always yields the same :class:`FaultSet`; no wall-clock state exists
  anywhere in the pipeline.
* **Nesting (common random numbers)** — raising a rate can only *add*
  faults, never swap them, so degradation curves produced by sweeping
  ``FaultModelConfig.scaled`` are monotone by construction rather than
  by statistical accident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config.faults import FAULT_KINDS, FaultModelConfig
from ..config.system import PimSystemConfig
from ..errors import FaultConfigError, FaultError

#: Sub-stream tags so different draw families never share RNG state.
_STREAM_COMPONENTS = 0x7A11
_STREAM_CORRUPTION = 0x7A12


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injected fault.

    ``component`` uses the config-layer naming scheme
    (``bank:{r}:{c}:{b}``, ``chip:{r}:{c}``, ``rank:{r}``, ``bus``);
    ``severity`` is the kind-specific multiplier (straggler slowdown,
    link serialization factor) or duration scale (bus stalls).
    """

    kind: str
    component: str
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultConfigError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {FAULT_KINDS})"
            )
        if self.severity < 0:
            raise FaultConfigError("fault severity must be >= 0")


@dataclass(frozen=True)
class FaultSet:
    """The concrete faults of one trial, plus cheap accessors."""

    events: tuple[FaultEvent, ...]

    def __bool__(self) -> bool:
        return bool(self.events)

    def of_kind(self, kind: str) -> tuple[FaultEvent, ...]:
        if kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {kind!r}")
        return tuple(e for e in self.events if e.kind == kind)

    # -- tier views ---------------------------------------------------------
    @property
    def dead_banks(self) -> tuple[str, ...]:
        return tuple(
            e.component for e in self.of_kind("bank_fail_stop")
        )

    @property
    def failed_chip_links(self) -> tuple[str, ...]:
        return tuple(
            e.component for e in self.of_kind("chip_link_failed")
        )

    @property
    def straggler_multipliers(self) -> dict[str, float]:
        """bank component name -> slowdown multiplier (>= 1)."""
        return {
            e.component: e.severity
            for e in self.of_kind("bank_straggler")
        }

    @property
    def max_straggler_multiplier(self) -> float:
        return max(
            (e.severity for e in self.of_kind("bank_straggler")),
            default=1.0,
        )

    @property
    def degraded_chip_links(self) -> dict[str, float]:
        """chip component name -> serialization factor (>= 1)."""
        return {
            e.component: e.severity
            for e in self.of_kind("chip_link_degraded")
        }

    @property
    def bus_stalls(self) -> int:
        return len(self.of_kind("rank_bus_stall"))

    @property
    def fatal(self) -> bool:
        """Whether a statically scheduled collective cannot complete."""
        return bool(self.dead_banks or self.failed_chip_links)


def bank_name(r: int, c: int, b: int) -> str:
    return f"bank:{r}:{c}:{b}"


def chip_name(r: int, c: int) -> str:
    return f"chip:{r}:{c}"


def component_rng(seed: int, stream: int = _STREAM_COMPONENTS):
    """The seeded generator for one draw family of one trial."""
    if seed < 0:
        raise FaultConfigError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng((seed, stream))


def corruption_uniforms(seed: int, num_flits: int) -> np.ndarray:
    """Per-flit uniforms shared by every rate point of a sweep.

    The closed-form engine counts ``(u < rate)`` against these, so the
    corrupted-flit count is non-decreasing in the rate — the same
    nesting trick the component sampler uses.
    """
    if num_flits < 0:
        raise FaultError("flit count must be >= 0")
    return component_rng(seed, _STREAM_CORRUPTION).random(num_flits)


def sample_fault_set(
    model: FaultModelConfig,
    system: PimSystemConfig,
    seed: int,
    targets: tuple[str, ...] = (),
) -> FaultSet:
    """Sample the concrete faults of one trial.

    Draw order is fixed by the topology (banks first, then chips, then
    the bus) and every draw happens whether or not its rate is zero, so
    fault sets at different rates of the same seed are *nested*.
    ``targets`` adds forced faults on named components (a known-bad
    DIMM, a marginal link) on top of the sampled ones: banks and ranks
    fail-stop, chips lose their DQ link, and ``bus`` stalls.
    """
    chips, banks = system.chips_per_rank, system.banks_per_chip
    num_chips = system.ranks_per_channel * chips
    num_banks = num_chips * banks
    # One vector draw is the same stream as the scalar draws in topology
    # order: three per bank, two per chip, then one for the bus.
    u = component_rng(seed).random(3 * num_banks + 2 * num_chips + 1)
    bank_u = u[: 3 * num_banks].reshape(num_banks, 3)
    chip_u = u[3 * num_banks : -1].reshape(num_chips, 2)
    events: list[FaultEvent] = []

    def bank(i: int) -> str:
        chip, b = divmod(int(i), banks)
        return bank_name(*divmod(chip, chips), b)

    def chip(i: int) -> str:
        return chip_name(*divmod(int(i), chips))

    for i in np.flatnonzero(bank_u[:, 0] < model.bank_fail_stop_rate):
        events.append(FaultEvent("bank_fail_stop", bank(i)))
    for i in np.flatnonzero(bank_u[:, 1] < model.bank_straggler_rate):
        severity = 1.0 + (model.straggler_severity - 1.0) * (
            0.5 + 0.5 * float(bank_u[i, 2])
        )
        events.append(FaultEvent("bank_straggler", bank(i), severity))

    failed = chip_u[:, 0] < model.chip_link_fail_rate
    for i in np.flatnonzero(failed):
        events.append(FaultEvent("chip_link_failed", chip(i)))
    degraded = ~failed & (chip_u[:, 1] < model.chip_link_degrade_rate)
    for i in np.flatnonzero(degraded):
        events.append(
            FaultEvent(
                "chip_link_degraded", chip(i), model.chip_link_degrade_factor
            )
        )

    if u[-1] < model.rank_bus_stall_rate:
        events.append(FaultEvent("rank_bus_stall", "bus"))

    events.extend(_forced_events(targets, system, model))
    # Deterministic presentation order, independent of draw order.
    events.sort(key=lambda e: (e.kind, e.component))
    return FaultSet(events=tuple(dict.fromkeys(events)))


def _forced_events(
    targets: tuple[str, ...],
    system: PimSystemConfig,
    model: FaultModelConfig,
) -> list[FaultEvent]:
    """Pinned faults for explicitly named components."""
    events: list[FaultEvent] = []
    for target in targets:
        kind = target.split(":")[0]
        if kind == "bank":
            events.append(FaultEvent("bank_fail_stop", target))
        elif kind == "chip":
            events.append(FaultEvent("chip_link_failed", target))
        elif kind == "rank":
            r = int(target.split(":")[1])
            for c in range(system.chips_per_rank):
                for b in range(system.banks_per_chip):
                    events.append(
                        FaultEvent("bank_fail_stop", bank_name(r, c, b))
                    )
        elif kind == "bus":
            events.append(FaultEvent("rank_bus_stall", "bus"))
        else:  # pragma: no cover - config layer validates first
            raise FaultConfigError(f"unknown target kind in {target!r}")
    return events
