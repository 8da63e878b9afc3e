"""Bridging static schedules into NoC traffic (the Fig 13 methodology).

The paper drove Booksim with per-DPU compute-finish times measured on
real UPMEM hardware; here a seeded lognormal skew model plays that role.
Credit mode lets each DPU inject as soon as its own data is ready
(respecting the ring algorithm's receive-before-forward dependencies);
scheduled mode synchronizes all DPUs (max finish time plus READY/START
latency) and then walks the schedule's steps as barriers.
"""

from __future__ import annotations

import math

import numpy as np

from ..collectives.patterns import Collective
from ..config.units import NOC_CYCLE_S
from ..core.schedule import CommSchedule, Tier
from ..core.sync import SyncTree
from ..errors import SimulationError
from .flit import Message
from .network import NocNetwork


def compute_skew_cycles(
    num_dpus: int,
    mean_cycles: float = 2000.0,
    sigma: float = 0.1,
    seed: int = 7,
) -> list[int]:
    """Per-DPU compute-finish times (cycles), lognormally skewed.

    Stands in for the paper's measured per-DPU execution times: DPUs
    finish their compute phase at slightly different moments, which is
    precisely what static scheduling must pay a synchronization cost for.
    """
    if mean_cycles <= 0:
        raise SimulationError("mean compute time must be positive")
    rng = np.random.default_rng(seed)
    samples = rng.lognormal(
        mean=math.log(mean_cycles), sigma=sigma, size=num_dpus
    )
    return [int(s) for s in samples]


def _ring_dependencies(
    step_messages: list[list[Message]],
) -> None:
    """Wire receive-before-forward deps for ring RS/AG-style schedules.

    A node's transfer at step ``s`` may only inject once the node has
    received its step ``s-1`` data, so each message depends on the
    previous step's messages destined to its source.
    """
    for s in range(1, len(step_messages)):
        previous = step_messages[s - 1]
        by_dst: dict[int, list[int]] = {}
        for m in previous:
            by_dst.setdefault(m.dst, []).append(m.msg_id)
        for m in step_messages[s]:
            m.deps = tuple(by_dst.get(m.src, ()))


def messages_from_schedule(
    schedule: CommSchedule,
    network: NocNetwork,
    mode: str,
    ready_cycles: list[int] | None = None,
    itemsize: int = 8,
    sync_tree: SyncTree | None = None,
) -> tuple[list[Message], dict[int, int]]:
    """Build the NoC message list for one collective.

    Returns ``(messages, barriers)``; ``barriers`` is empty in credit
    mode and maps message id -> global step index in scheduled mode.
    """
    if mode not in ("credit", "scheduled"):
        raise SimulationError(f"unknown mode {mode!r}")
    n = schedule.shape.num_dpus
    ready = ready_cycles or [0] * n
    if len(ready) != n:
        raise SimulationError(f"need {n} ready times, got {len(ready)}")

    if mode == "scheduled":
        sync_cycles = 0
        if sync_tree is not None:
            sync_cycles = max(
                1, round(sync_tree.round_trip_latency_s() / NOC_CYCLE_S)
            )
        start = max(ready) + sync_cycles
    else:
        start = 0

    if mode == "credit" and schedule.pattern is Collective.ALL_TO_ALL:
        # Without PIM-controlled scheduling, an All-to-All is just N*(N-1)
        # independent point-to-point messages: every DPU fires its chunks
        # in destination order as soon as it finishes computing, and the
        # routers' credit/arbitration machinery absorbs the contention.
        # (The permutation schedule *is* the contribution being ablated.)
        chunk = schedule.num_elements // n
        num_flits = max(1, math.ceil(chunk * itemsize / network.flit_bytes))
        naive: list[Message] = []
        msg_id = 0
        for src in range(n):
            for dst in range(n):
                if dst == src:
                    continue
                naive.append(
                    Message(
                        msg_id=msg_id,
                        src=src,
                        dst=dst,
                        num_flits=num_flits,
                        ready_cycle=ready[src],
                    )
                )
                msg_id += 1
        return naive, {}

    messages: list[Message] = []
    barriers: dict[int, int] = {}
    step_messages: list[list[Message]] = []
    msg_id = 0
    global_step = 0
    for phase in schedule.phases:
        if phase.tier is Tier.LOCAL:
            continue
        for step in phase.steps:
            this_step: list[Message] = []
            for t in step.transfers:
                if t.src == t.dst:
                    continue
                num_flits = max(
                    1,
                    math.ceil(t.length * itemsize / network.flit_bytes),
                )
                message = Message(
                    msg_id=msg_id,
                    src=t.src,
                    dst=t.dst,
                    num_flits=num_flits,
                    ready_cycle=start if mode == "scheduled" else ready[t.src],
                )
                if mode == "scheduled":
                    barriers[msg_id] = global_step
                this_step.append(message)
                messages.append(message)
                msg_id += 1
            step_messages.append(this_step)
            global_step += 1

    needs_ring_deps = mode == "credit" and schedule.pattern in (
        Collective.ALL_REDUCE,
        Collective.REDUCE_SCATTER,
        Collective.BROADCAST,
    )
    if needs_ring_deps:
        _ring_dependencies(step_messages)
    return messages, barriers


def run_flow_control_comparison(
    schedule: CommSchedule,
    network: NocNetwork,
    mean_compute_cycles: float = 2000.0,
    sigma: float = 0.1,
    seed: int = 7,
    itemsize: int = 8,
    sync_tree: SyncTree | None = None,
) -> dict[str, int]:
    """Fig 13 core: total execution cycles under both flow controls.

    "Execution" includes the compute skew: credit mode overlaps the
    stragglers' compute with early finishers' communication; scheduled
    mode waits for the last DPU, then releases the schedule one step at
    a time behind barriers. It is barrier-gated, not contention-free:
    the routers still arbitrate between the transfers of one step.
    """
    from .simulator import NocSimulator

    ready = compute_skew_cycles(
        schedule.shape.num_dpus, mean_compute_cycles, sigma, seed
    )
    results: dict[str, int] = {}
    for mode in ("credit", "scheduled"):
        messages, barriers = messages_from_schedule(
            schedule, network, mode, ready, itemsize, sync_tree
        )
        sim = NocSimulator(network, messages)
        if mode == "scheduled":
            sim.set_barriers(barriers)
        stats = sim.run()
        results[mode] = stats.cycles
        results[f"{mode}_conflicts"] = stats.arbitration_conflicts
        results[f"{mode}_peak_buffer"] = stats.peak_buffer_occupancy
        results[f"{mode}_events"] = stats.events_processed
        results[f"{mode}_idle_skipped"] = stats.idle_cycles_skipped
    return results
