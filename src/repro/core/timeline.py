"""Execution timelines for scheduled collectives (Fig 5(d)).

Algorithm 1's timing offsets say when each phase begins on every bank;
this module renders them as a phase timeline — the textual equivalent of
the paper's execution-flow diagram — and checks the offsets are
consistent with the closed-form phase durations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..collectives.patterns import Collective, CollectiveRequest
from ..config.presets import MachineConfig, pimnet_sim_system
from ..config.units import fmt_seconds
from ..errors import ScheduleError
from ..observability import metric_histogram, trace_span
from .addressing import AllReduceAddressGenerator
from .pimnet import PimnetBackend


@dataclass(frozen=True)
class TimelineEntry:
    """One phase's window in the collective's execution."""

    domain: str
    phase: str
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class CollectiveTimeline:
    """The full phase timeline of a hierarchical AllReduce."""

    entries: tuple[TimelineEntry, ...]
    sync_s: float

    @property
    def total_s(self) -> float:
        transport = max((e.end_s for e in self.entries), default=0.0)
        return transport + self.sync_s

    def entry(self, domain: str, phase: str) -> TimelineEntry:
        for e in self.entries:
            if (e.domain, e.phase) == (domain, phase):
                return e
        raise ScheduleError(f"no timeline entry for {domain}/{phase}")


def allreduce_timeline(
    payload_bytes: int,
    machine: MachineConfig | None = None,
) -> CollectiveTimeline:
    """Phase windows of an AllReduce on ``machine`` (Algorithm 1 offsets)."""
    machine = machine or pimnet_sim_system()
    backend = PimnetBackend(machine)
    shape = backend.shape
    if payload_bytes % (8 * shape.num_dpus) != 0:
        raise ScheduleError(
            "payload must be a multiple of 8 bytes x DPU count"
        )
    generator = AllReduceAddressGenerator(
        shape, payload_bytes // 8, backend.model
    )
    durations = {
        ("bank", "RS"): generator.t_rs_bank,
        ("chip", "RS"): generator.t_rs_chip,
        ("rank", "RS"): generator.t_rs_rank,
        ("rank", "AG"): generator.t_ag_rank,
        ("chip", "AG"): generator.t_ag_chip,
        ("bank", "AG"): generator.t_ag_bank,
    }
    plan = generator.plan(0)
    entries = []
    for p in plan.phases:
        duration = durations[(p.domain, p.phase)]
        entries.append(
            TimelineEntry(
                domain=p.domain,
                phase=p.phase,
                start_s=p.start_offset_s,
                end_s=p.start_offset_s + duration,
            )
        )
    entries.sort(key=lambda e: e.start_s)
    request = CollectiveRequest(Collective.ALL_REDUCE, payload_bytes)
    sync_s = backend.timing(request).sync_s
    timeline = CollectiveTimeline(entries=tuple(entries), sync_s=sync_s)
    _emit_timeline_spans(timeline, payload_bytes, shape.num_dpus)
    return timeline


def _emit_timeline_spans(
    timeline: CollectiveTimeline, payload_bytes: int, num_dpus: int
) -> None:
    """Record the phase windows as simulated-time spans (Fig 5(d)).

    Each entry becomes a child span named ``<domain>-<phase>`` (the same
    labels as :func:`format_timeline`) whose sim window is the phase's
    Algorithm 1 offset and closed-form duration, so a Chrome trace of a
    traced run *is* the paper's execution-flow diagram.
    """
    with trace_span(
        "timeline/allreduce",
        category="timeline",
        payload_bytes=payload_bytes,
        num_dpus=num_dpus,
    ) as root:
        root.set_sim_window(0.0, timeline.total_s)
        for e in timeline.entries:
            with trace_span(
                f"{e.domain}-{e.phase}",
                category="phase",
                domain=e.domain,
                phase=e.phase,
                sim_start_s=e.start_s,
                sim_end_s=e.end_s,
            ):
                pass
            metric_histogram("timeline.phase_s").observe(e.duration_s)
        transport_s = max((e.end_s for e in timeline.entries), default=0.0)
        with trace_span(
            "sync",
            category="phase",
            sim_start_s=transport_s,
            sim_end_s=transport_s + timeline.sync_s,
        ):
            pass


def format_timeline(timeline: CollectiveTimeline, width: int = 52) -> str:
    """ASCII Gantt rendering of the phase windows."""
    if not timeline.entries:
        return "(empty timeline)"
    span = max(e.end_s for e in timeline.entries)
    if span <= 0:
        return "(zero-length timeline)"
    lines = [
        f"AllReduce timeline (transport {fmt_seconds(span)}, "
        f"+{fmt_seconds(timeline.sync_s)} sync):"
    ]
    for e in timeline.entries:
        start = int(e.start_s / span * width)
        length = max(1, int(e.duration_s / span * width))
        bar = " " * start + "#" * length
        lines.append(
            f"  {e.domain:>4s}-{e.phase:<3s} |{bar:<{width}}| "
            f"{fmt_seconds(e.duration_s)}"
        )
    return "\n".join(lines)
