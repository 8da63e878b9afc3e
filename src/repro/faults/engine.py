"""The resilience engine: (machine, fault set) -> degraded CollectiveResult.

The repository's one fault model, in closed form: it starts from a
backend's fault-free :class:`CommBreakdown` and applies each fault
family's cost model —

* **stragglers** stretch every transport tier by the slowest straggler's
  multiplier (bulk-synchronous phases wait for the last DPU);
* **degraded chip links** stretch the inter-chip tier by the worst
  serialization factor;
* **bus stalls** each add a fixed stall to the inter-rank tier;
* **flit corruption** charges detection + retransmission per corrupted
  NoC-sized flit (:data:`~repro.config.units.NOC_FLIT_BYTES`), counted
  against the sweep-shared uniforms of
  :func:`repro.faults.model.corruption_uniforms` (so the count is
  non-decreasing in the rate);
* **fail-stop** faults make the static schedule infeasible: the
  controller burns ``max_retries + 1`` sync-timeout rounds detecting the
  silent node, then aborts.

Every cost is additive or a multiplier >= 1 on a *nested* fault set
(see :mod:`repro.faults.model`), so sweeping the fault rate up can never
make a collective faster — degradation curves are monotone by
construction, which the campaign tests assert.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..collectives.backend import registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..collectives.result import CollectiveResult, CommBreakdown
from ..config.faults import FaultModelConfig
from ..config.presets import MachineConfig
from ..config.units import NOC_FLIT_BYTES
from ..core.sync import SyncTree
from ..observability import (
    metric_counter,
    metric_histogram,
    observability_active,
    trace_span,
)
from .model import FaultSet, corruption_uniforms, sample_fault_set


def collective_under_faults(
    machine: MachineConfig,
    model: FaultModelConfig,
    seed: int,
    payload_bytes: int,
    collective: str = "all_reduce",
    backend: str = "P",
    targets: tuple[str, ...] = (),
    fault_set: FaultSet | None = None,
) -> CollectiveResult:
    """Run one collective under one trial's faults (closed form).

    ``fault_set`` may be passed explicitly (campaign runners sample once
    and share the set across metrics); otherwise it is sampled from
    ``(model, machine, seed, targets)``.  With an empty fault set the
    result is byte-identical to the fault-free backend timing.
    """
    request = CollectiveRequest(Collective(collective), payload_bytes)
    bk = registry.create(backend, machine)
    base = bk.timing(request)
    if fault_set is None:
        fault_set = sample_fault_set(model, machine.system, seed, targets)
    # Corruption is per-flit, not per-component, so it degrades the run
    # even when no component-level fault was sampled.
    if not fault_set and model.flit_corruption_rate == 0.0:
        return CollectiveResult(breakdown=base, backend_name=bk.name)

    breakdown, retries = _degraded_breakdown(
        base, fault_set, model, machine, seed, payload_bytes
    )
    report = _sync_report(base, fault_set, model, machine)
    if fault_set.fatal:
        # Detection: the controller retries the READY round until it
        # gives up on the silent node.  The degraded transport time is
        # kept underneath so the abort cost still grows with the rate.
        abort_s = (model.max_retries + 1) * model.sync_timeout_s
        breakdown = replace(breakdown, sync_s=breakdown.sync_s + abort_s)
        status = "aborted"
        retries = max(retries, model.max_retries)
        dead = fault_set.dead_banks
        critical = dead[0] if dead else fault_set.failed_chip_links[0]
    else:
        fault_time = breakdown.total_s - base.total_s
        status = "degraded" if fault_time > 0 or retries else "completed"
        critical = report.critical_node

    fault_time = breakdown.total_s - base.total_s
    result = CollectiveResult(
        breakdown=breakdown,
        backend_name=bk.name,
        status=status,
        retries=retries,
        fault_time_s=fault_time,
        critical_node=critical,
    )
    _emit_fault_telemetry(fault_set, result, seed)
    return result


def _degraded_breakdown(
    base: CommBreakdown,
    fault_set: FaultSet,
    model: FaultModelConfig,
    machine: MachineConfig,
    seed: int,
    payload_bytes: int,
) -> tuple[CommBreakdown, int]:
    """Apply every non-fatal fault family's cost to ``base``."""
    bank_s = base.inter_bank_s
    chip_s = base.inter_chip_s
    rank_s = base.inter_rank_s
    retries = 0

    mult = fault_set.max_straggler_multiplier
    if mult > 1.0:
        bank_s *= mult
        chip_s *= mult
        rank_s *= mult

    degraded = fault_set.degraded_chip_links
    if degraded:
        chip_s *= max(degraded.values())

    stalls = fault_set.bus_stalls
    if stalls:
        rank_s += stalls * model.rank_bus_stall_s

    if model.flit_corruption_rate > 0.0 and payload_bytes > 0:
        num_flits = math.ceil(payload_bytes / NOC_FLIT_BYTES)
        uniforms = corruption_uniforms(seed, num_flits)
        corrupted = int((uniforms < model.flit_corruption_rate).sum())
        if corrupted:
            retries = corrupted
            flit_s = NOC_FLIT_BYTES / (
                machine.pimnet.inter_bank.link_bandwidth_bytes_per_s
            )
            bank_s += corrupted * model.retry_penalty_flits * flit_s

    return (
        replace(
            base,
            inter_bank_s=bank_s,
            inter_chip_s=chip_s,
            inter_rank_s=rank_s,
        ),
        retries,
    )


def _sync_report(
    base: CommBreakdown,
    fault_set: FaultSet,
    model: FaultModelConfig,
    machine: MachineConfig,
):
    """READY/START round trip under the trial's straggler delays.

    Each straggler's READY is late by its excess transport time; the
    report names the critical node (satellite of ``repro.core.sync``).
    """
    transport_s = base.inter_bank_s + base.inter_chip_s + base.inter_rank_s
    delays = {
        name: (severity - 1.0) * transport_s
        for name, severity in fault_set.straggler_multipliers.items()
    }
    tree = SyncTree(machine.system, machine.pimnet)
    return tree.round_trip_report(
        node_delays=delays, timeout_s=model.sync_timeout_s
    )


def _emit_fault_telemetry(
    fault_set: FaultSet, result: CollectiveResult, seed: int
) -> None:
    """``faults.*`` metrics and one span per injected fault event."""
    if not observability_active():
        return
    with trace_span(
        "faults/collective",
        category="faults",
        seed=seed,
        status=result.status,
        num_faults=len(fault_set.events),
        retries=result.retries,
        critical_node=result.critical_node,
    ) as span:
        span.set_sim_window(0.0, result.time_s)
        for event in fault_set.events:
            with trace_span(
                f"fault/{event.kind}",
                category="faults",
                component=event.component,
                severity=event.severity,
            ):
                pass
            metric_counter(f"faults.injected.{event.kind}").inc()
    metric_counter(f"faults.{result.status}").inc()
    metric_counter("faults.retries").inc(result.retries)
    metric_histogram("faults.fault_time_s").observe(result.fault_time_s)
