"""Structure keys for the schedule-compilation cache.

Two kinds of key, deliberately distinct:

* :class:`ScheduleKey` addresses one *compiled schedule* — it includes
  the payload (``num_elements``) because the transfer offsets/lengths of
  a :class:`~repro.core.schedule.CommSchedule` are payload-specific.
* :class:`StructureKey` addresses one *timing profile* — it excludes
  the payload on purpose: the analytic step costs scale exactly with
  payload bytes (see :mod:`repro.schedcache.profile`), so one profile
  serves every payload of the same (collective, shape, root, itemsize,
  network) structure.  Payload-only changes therefore *hit*; any change
  to the collective, a shape axis, the root, the element size, or any
  network parameter changes the key and misses.

The network enters the key as a SHA-256 over its canonical JSON (the
same encoder the runner cache uses), so every field of every tier link
— bandwidths, latencies, duplex flags, the unicast efficiency — is
key-sensitive, and a new config *class* invalidates like a new value.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..collectives.patterns import Collective

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..config.network import PimnetNetworkConfig
    from ..core.schedule import Shape

#: Per-process memo of network fingerprints.  PimnetNetworkConfig is a
#: frozen (hashable, by-value) dataclass, so equal configs — including
#: distinct-but-equal copies from ``replace()`` sweeps — share one
#: canonicalization pass.
_NETWORK_FINGERPRINTS: dict[object, str] = {}


def network_fingerprint(network: "PimnetNetworkConfig") -> str:
    """SHA-256 of the network config's canonical JSON, memoized."""
    cached = _NETWORK_FINGERPRINTS.get(network)
    if cached is None:
        from ..runner.canonical import canonical_json

        cached = hashlib.sha256(canonical_json(network).encode()).hexdigest()
        _NETWORK_FINGERPRINTS[network] = cached
    return cached


@dataclass(frozen=True)
class ScheduleKey:
    """Identity of one compiled :class:`CommSchedule` (payload included)."""

    collective: str
    banks: int
    chips: int
    ranks: int
    num_elements: int
    root: int

    @classmethod
    def for_build(
        cls,
        pattern: Collective,
        shape: "Shape",
        num_elements: int,
        root: int = 0,
    ) -> "ScheduleKey":
        return cls(
            collective=pattern.value,
            banks=shape.banks,
            chips=shape.chips,
            ranks=shape.ranks,
            num_elements=num_elements,
            root=root,
        )


@dataclass(frozen=True)
class StructureKey:
    """Identity of one timing profile (payload excluded by design)."""

    collective: str
    banks: int
    chips: int
    ranks: int
    root: int
    itemsize: int
    network: str  # SHA-256 fingerprint of the canonical network config

    @classmethod
    def for_structure(
        cls,
        pattern: Collective,
        shape: "Shape",
        network_config: "PimnetNetworkConfig",
        root: int = 0,
        itemsize: int = 8,
    ) -> "StructureKey":
        return cls(
            collective=pattern.value,
            banks=shape.banks,
            chips=shape.chips,
            ranks=shape.ranks,
            root=root,
            itemsize=itemsize,
            network=network_fingerprint(network_config),
        )

    def label(self) -> str:
        return (
            f"{self.collective}@{self.banks}x{self.chips}x{self.ranks}"
            f"/root{self.root}/i{self.itemsize}/net{self.network[:8]}"
        )
