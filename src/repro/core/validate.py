"""Schedule validation: the checks a PIMnet compiler would run.

A statically scheduled network has no flow control to absorb mistakes —
a mis-generated schedule silently corrupts data or collides on a link.
These validators enforce the structural invariants before a schedule is
trusted, and the failure-injection tests confirm each class of
corruption is caught.
"""

from __future__ import annotations

from ..errors import ScheduleError
from .schedule import CommSchedule, Phase, Tier


def validate_bounds(schedule: CommSchedule) -> None:
    """Every transfer's endpoints and ranges must be in-range."""
    n = schedule.shape.num_dpus
    e = schedule.num_elements
    for phase in schedule.phases:
        for step in phase.steps:
            for t in step.transfers:
                if not (0 <= t.src < n and 0 <= t.dst < n):
                    raise ScheduleError(
                        f"{phase.name}: endpoint out of range "
                        f"({t.src} -> {t.dst}, {n} DPUs)"
                    )
                # work-buffer accesses are bounded by E; output-buffer
                # accesses by N*E (AllGather/Gather extent).
                src_limit = n * e if t.read_output else e
                dst_limit = n * e if t.into_output else e
                if t.src_offset + t.length > src_limit:
                    raise ScheduleError(
                        f"{phase.name}: source range "
                        f"[{t.src_offset}, {t.src_offset + t.length}) "
                        f"exceeds {src_limit}"
                    )
                if t.dst_offset + t.length > dst_limit:
                    raise ScheduleError(
                        f"{phase.name}: destination range exceeds "
                        f"{dst_limit}"
                    )


def validate_tier_locality(schedule: CommSchedule) -> None:
    """Transfers may only cross the boundary their phase's tier owns."""
    shape = schedule.shape
    for phase in schedule.phases:
        for step in phase.steps:
            for t in step.transfers:
                r1, c1, _ = shape.coords(t.src)
                r2, c2, _ = shape.coords(t.dst)
                if phase.tier is Tier.LOCAL and t.src != t.dst:
                    raise ScheduleError(
                        f"{phase.name}: local phase moves data between "
                        f"DPUs {t.src} and {t.dst}"
                    )
                if phase.tier is Tier.BANK and (r1, c1) != (r2, c2):
                    raise ScheduleError(
                        f"{phase.name}: bank-tier transfer leaves the chip"
                    )
                if phase.tier is Tier.CHIP and r1 != r2:
                    raise ScheduleError(
                        f"{phase.name}: chip-tier transfer leaves the rank"
                    )


def _validate_ring_step(schedule: CommSchedule, phase: Phase) -> None:
    """Neighbor-ring steps: one flow per directed link.

    Multi-hop steps (All-to-All rotations, grouped AllGather forwards)
    legitimately time-share links — the timing model charges the summed
    load — so the one-flow-per-link invariant applies only to steps
    whose transfers are all single-hop.
    """
    shape = schedule.shape
    for step in phase.steps:
        hops = []
        for t in step.transfers:
            _, _, b_src = shape.coords(t.src)
            _, _, b_dst = shape.coords(t.dst)
            east = (b_dst - b_src) % shape.banks
            hops.append(min(east, shape.banks - east))
        if any(h != 1 for h in hops):
            continue
        link_flows: dict[tuple, tuple] = {}
        for t in step.transfers:
            r, c, b_src = shape.coords(t.src)
            _, _, b_dst = shape.coords(t.dst)
            east = (b_dst - b_src) % shape.banks
            direction = +1 if east == 1 else -1
            key = (r, c, b_src, direction)
            flow = (t.src, t.dst)
            if key in link_flows and link_flows[key] != flow:
                raise ScheduleError(
                    f"{phase.name}: ring link {key} claimed by two "
                    f"flows ({link_flows[key]} and {flow}) in one step"
                )
            link_flows[key] = flow


def _validate_crossbar_step(schedule: CommSchedule, phase: Phase) -> None:
    shape = schedule.shape
    for step in phase.steps:
        partner: dict[tuple, int] = {}
        for t in step.transfers:
            r, c_src, _ = shape.coords(t.src)
            _, c_dst, _ = shape.coords(t.dst)
            key = (r, c_src)
            if key in partner and partner[key] != c_dst:
                raise ScheduleError(
                    f"{phase.name}: chip {key} drives two crossbar "
                    f"outputs ({partner[key]} and {c_dst}) in one step"
                )
            partner[key] = c_dst


def validate_contention_free(schedule: CommSchedule) -> None:
    """No two transfers of a step may claim the same physical resource.

    Ring steps: each directed ring link used at most once.  Crossbar
    steps: each chip drives at most one output per step (the
    permutation property of Fig 8).  Funnel phases are exempt from the
    single-link rule (they serialize by construction in timing).
    """
    for phase in schedule.phases:
        if "funnel" in phase.name or "bcast" in phase.name:
            continue
        if phase.tier is Tier.BANK and phase.algorithm == "ring":
            _validate_ring_step(schedule, phase)
        elif phase.tier is Tier.CHIP and phase.algorithm in (
            "ring", "permutation",
        ):
            _validate_crossbar_step(schedule, phase)


def validate_no_write_races(schedule: CommSchedule) -> None:
    """Within a step, non-combining writes to one DPU must not overlap.

    Combining (RECV_REDUCE) writes commute, so any number may target the
    same range; but two plain writes to overlapping ranges in the same
    step would need receiver-side arbitration the hardware does not
    have.
    """
    for phase in schedule.phases:
        for step in phase.steps:
            plain: dict[tuple[int, bool], list[tuple[int, int]]] = {}
            for t in step.transfers:
                if t.combine:
                    continue
                key = (t.dst, t.into_output)
                span = (t.dst_offset, t.dst_offset + t.length)
                for other in plain.get(key, []):
                    if span[0] < other[1] and other[0] < span[1]:
                        raise ScheduleError(
                            f"{phase.name}: write race on DPU {t.dst} "
                            f"ranges {other} and {span}"
                        )
                plain.setdefault(key, []).append(span)


def validate_schedule(schedule: CommSchedule) -> None:
    """All structural checks a compiler would run before offload."""
    validate_bounds(schedule)
    validate_tier_locality(schedule)
    validate_contention_free(schedule)
    validate_no_write_races(schedule)
