"""Payload-scaling timing profiles: exact analytic replay without rebuilds.

:func:`~repro.core.schedule.schedule_timing` walks every transfer of
every step, accumulating link loads.  But within any one step of any
generated schedule all transfers carry the *same* length ``L``, and
``L`` is an exact integer divisor of the per-DPU element count ``E``
(the whole payload for broadcast/gather legs, ``E/banks`` for bank
segments, ``E/(banks*chips)`` for chip sub-segments, ``E/N`` for rank
subsub-segments and All-to-All chunks).  Every per-link load is
therefore ``count * L * itemsize`` for an *integer* ``count`` that
depends only on the schedule's structure, never on ``E``.

:func:`extract_profile` walks a schedule once and records, per step,
those integer counts (peak ring-link load multiplier, max hops, bus
unique-payload count, peak DQ-port multiplier).  :meth:`TimingProfile.
times` then reproduces ``schedule_timing`` for *any* payload by
replaying the identical float operations — ``count*L*itemsize`` divided
by the same bandwidths, the same hop-latency adds, accumulated in the
same step order.  Because IEEE-754 addition of equal integer-valued
floats below 2**53 is exact, the replay is **bit-identical** to the
fresh computation, not merely close; :meth:`TimingProfile.exact_for`
checks the 2**53 bound (and divisibility) so out-of-range payloads fall
back to the slow path instead of silently rounding.  The property test
``tests/test_schedcache_profile.py`` asserts ``==`` per tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.schedule import CommSchedule, Shape, Tier
from ..errors import SchedCacheError
from ..observability import metric_counter

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..config.network import PimnetNetworkConfig

#: Loads at or above 2**53 bytes lose float exactness; fall back.
MAX_EXACT_BYTES = 2**53


@dataclass(frozen=True)
class StepCost:
    """Structural (payload-independent) cost counts of one schedule step.

    ``divisor`` relates the step's uniform transfer length to the per-DPU
    element count: ``L = E // divisor``.  The remaining fields are the
    integer multipliers the tier formulas in ``schedule_timing`` reduce
    to when all transfers share one length:

    * bank ring — peak directed-link load is ``peak_units * L *
      itemsize``; ``hops`` is the step's max shorter-way hop count;
    * chip crossbar — peak per-(rank, chip) port load is ``peak_units *
      L * itemsize``;
    * rank bus — the bus serializes ``bus_units`` unique payloads while
      the busiest chip port moves ``port_units`` lengths; ``unicast``
      records whether the phase pays the bus-turnaround efficiency.
    """

    tier: str  # Tier.value; never LOCAL
    divisor: int
    num_transfers: int
    peak_units: int = 0
    hops: int = 0
    bus_units: int = 0
    port_units: int = 0
    unicast: bool = False


@dataclass(frozen=True)
class TimingProfile:
    """Per-structure analytic step costs, replayable at any payload."""

    collective: str
    banks: int
    chips: int
    ranks: int
    root: int
    itemsize: int
    base_elements: int  # payload the profile was extracted at
    steps: tuple[StepCost, ...]

    def supports(self, num_elements: int) -> bool:
        """Whether every step's length divides ``num_elements`` evenly."""
        if num_elements < 1:
            return False
        return all(num_elements % s.divisor == 0 for s in self.steps)

    def exact_for(self, num_elements: int) -> bool:
        """Whether replay at ``num_elements`` is bit-exact (2**53 bound)."""
        if not self.supports(num_elements):
            return False
        for s in self.steps:
            unit = (num_elements // s.divisor) * self.itemsize
            peak = max(s.peak_units, s.port_units, s.bus_units) * unit
            if peak >= MAX_EXACT_BYTES:
                return False
        return True

    def times(
        self, num_elements: int, network: "PimnetNetworkConfig"
    ) -> dict[Tier, float]:
        """Replay ``schedule_timing`` analytically for ``num_elements``.

        Performs the identical float operations the slow path would —
        same peak bytes, same bandwidth divisions, same hop-latency
        additions, same per-tier accumulation order — so, within
        :meth:`exact_for`'s bound, the result is bit-identical.  Also
        mirrors the ``schedule.bytes.*`` counters so warm-path metrics
        match a cold run.
        """
        if not self.supports(num_elements):
            raise SchedCacheError(
                f"profile for {self.collective} cannot rescale to "
                f"{num_elements} elements (divisors "
                f"{sorted({s.divisor for s in self.steps})})"
            )
        times: dict[Tier, float] = {t: 0.0 for t in Tier}
        tier_bytes: dict[Tier, float] = {t: 0.0 for t in Tier}
        for s in self.steps:
            length = num_elements // s.divisor
            unit = length * self.itemsize  # exact int, like the slow path
            tier = Tier(s.tier)
            tier_bytes[tier] += s.num_transfers * unit
            times[tier] += self._step_time(s, unit, network)
        for tier in (Tier.BANK, Tier.CHIP, Tier.RANK):
            metric_counter(f"schedule.bytes.{tier.value}").inc(
                tier_bytes[tier]
            )
        return times

    @staticmethod
    def _step_time(
        s: StepCost, unit: int, network: "PimnetNetworkConfig"
    ) -> float:
        if s.tier == Tier.BANK.value:
            if not s.peak_units:  # all transfers zero-hop: no link loads
                return 0.0
            link = network.inter_bank
            return (
                (s.peak_units * unit) / link.link_bandwidth_bytes_per_s
                + s.hops * link.hop_latency_s
            )
        if s.tier == Tier.CHIP.value:
            if not s.peak_units:
                return 0.0
            link = network.inter_chip
            return (
                (s.peak_units * unit) / link.link_bandwidth_bytes_per_s
                + 2 * link.hop_latency_s
            )
        # Rank tier: bus serialization vs DQ port load.
        bus_bytes = s.bus_units * unit
        if bus_bytes == 0:
            return 0.0
        bus = network.inter_rank
        efficiency = (
            network.inter_rank_unicast_efficiency if s.unicast else 1.0
        )
        bus_time = bus_bytes / (bus.link_bandwidth_bytes_per_s * efficiency)
        port_time = (
            s.port_units * unit
        ) / network.inter_chip.link_bandwidth_bytes_per_s
        return max(bus_time, port_time) + 2 * bus.hop_latency_s


def extract_profile(
    schedule: CommSchedule, itemsize: int = 8, root: int = 0
) -> TimingProfile:
    """Derive the payload-invariant step costs of ``schedule``.

    Raises :class:`SchedCacheError` for schedules outside the rescaling
    model — a step mixing transfer lengths, a length that does not
    divide the element count, or a rank-tier offset that is not a
    multiple of the length (bus uniqueness would then be
    payload-dependent).  Every generated Table V schedule satisfies all
    three; callers treat the error as "profile this structure fresh
    every time".
    """
    shape = schedule.shape
    base = schedule.num_elements
    steps: list[StepCost] = []
    for phase in schedule.phases:
        if phase.tier is Tier.LOCAL:
            continue
        for step in phase.steps:
            steps.append(
                _extract_step(shape, phase.tier, phase.algorithm, step, base)
            )
    return TimingProfile(
        collective=schedule.pattern.value,
        banks=shape.banks,
        chips=shape.chips,
        ranks=shape.ranks,
        root=root,
        itemsize=itemsize,
        base_elements=base,
        steps=tuple(steps),
    )


def _uniform_length(step, base_elements: int) -> int:
    lengths = {t.length for t in step.transfers}
    if len(lengths) != 1:
        raise SchedCacheError(
            f"step mixes transfer lengths {sorted(lengths)}; "
            "not payload-rescalable"
        )
    (length,) = lengths
    if base_elements % length:
        raise SchedCacheError(
            f"transfer length {length} does not divide the element "
            f"count {base_elements}; not payload-rescalable"
        )
    return length


def _extract_step(
    shape: Shape, tier: Tier, algorithm: str, step, base_elements: int
) -> StepCost:
    length = _uniform_length(step, base_elements)
    divisor = base_elements // length
    n = len(step.transfers)

    if tier is Tier.BANK:
        counts: dict[tuple[int, int, int, int, int], int] = {}
        max_hops = 0
        for t in step.transfers:
            r, c, b_src = shape.coords(t.src)
            _, _, b_dst = shape.coords(t.dst)
            east = (b_dst - b_src) % shape.banks
            west = shape.banks - east
            if east <= west:
                hops, direction, start = east, +1, b_src
            else:
                hops, direction, start = west, -1, b_src
            max_hops = max(max_hops, hops)
            for h in range(hops):
                position = (start + direction * h) % shape.banks
                key = (r, c, position, direction, 0)
                counts[key] = counts.get(key, 0) + 1
        peak = max(counts.values()) if counts else 0
        return StepCost(
            tier=tier.value,
            divisor=divisor,
            num_transfers=n,
            peak_units=peak,
            hops=max_hops,
        )

    if tier is Tier.CHIP:
        out_c: dict[tuple[int, int], int] = {}
        in_c: dict[tuple[int, int], int] = {}
        for t in step.transfers:
            r_src, c_src, _ = shape.coords(t.src)
            r_dst, c_dst, _ = shape.coords(t.dst)
            out_c[(r_src, c_src)] = out_c.get((r_src, c_src), 0) + 1
            in_c[(r_dst, c_dst)] = in_c.get((r_dst, c_dst), 0) + 1
        peak = max(
            max(out_c.values(), default=0), max(in_c.values(), default=0)
        )
        return StepCost(
            tier=tier.value,
            divisor=divisor,
            num_transfers=n,
            peak_units=peak,
        )

    # Rank tier: the bus counts each unique (src, offset, length,
    # read_output) payload once.  Offsets must be length-multiples so
    # the uniqueness structure is the same at every payload size.
    unique: set[tuple[int, int, int, bool]] = set()
    in_c = {}
    for t in step.transfers:
        if t.src_offset % length:
            raise SchedCacheError(
                f"rank-tier offset {t.src_offset} is not a multiple of "
                f"the transfer length {length}; bus uniqueness would be "
                "payload-dependent"
            )
        unique.add((t.src, t.src_offset, t.length, t.read_output))
        r_dst, c_dst, _ = shape.coords(t.dst)
        in_c[(r_dst, c_dst)] = in_c.get((r_dst, c_dst), 0) + 1
    out_c = {}
    for src, _offset, _length, _ro in unique:
        r_src, c_src, _ = shape.coords(src)
        out_c[(r_src, c_src)] = out_c.get((r_src, c_src), 0) + 1
    port_units = max(
        max(out_c.values(), default=0), max(in_c.values(), default=0)
    )
    return StepCost(
        tier=tier.value,
        divisor=divisor,
        num_transfers=n,
        bus_units=len(unique),
        port_units=port_units,
        unicast=algorithm == "unicast",
    )
