"""Workload framework: phases, results, and the execution engine.

A workload describes its per-DPU work as an alternating list of compute
phases (operation counts for the DPU model) and communication phases
(collective requests).  The engine times compute with the
:class:`~repro.dpu.compute.ComputeModel` and communication with any
registered backend, producing the execution breakdowns of Figs 10/11.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from ..collectives.backend import CollectiveBackend, registry
from ..collectives.patterns import Collective, CollectiveRequest
from ..collectives.result import CommBreakdown, CommStats
from ..config.presets import MachineConfig
from ..dpu.compute import ComputeModel, OpCounts
from ..errors import WorkloadError

#: Table VII communication-pattern labels.
PATTERN_LABEL = {
    Collective.REDUCE_SCATTER: "RS",
    Collective.ALL_REDUCE: "AR",
    Collective.ALL_TO_ALL: "A2A",
    Collective.ALL_GATHER: "AG",
    Collective.BROADCAST: "BC",
    Collective.REDUCE: "R",
    Collective.GATHER: "G",
}


@dataclass(frozen=True)
class ComputePhase:
    """Per-DPU compute work, repeated ``repeat`` times."""

    work: OpCounts
    repeat: int = 1
    name: str = "compute"

    def __post_init__(self) -> None:
        if self.repeat < 0:
            raise WorkloadError("repeat must be >= 0")


@dataclass(frozen=True)
class CommPhase:
    """One collective, repeated ``repeat`` times."""

    request: CollectiveRequest
    repeat: int = 1
    name: str = "comm"

    def __post_init__(self) -> None:
        if self.repeat < 0:
            raise WorkloadError("repeat must be >= 0")


WorkloadPhase = ComputePhase | CommPhase


class Workload(ABC):
    """One of the paper's Table VII applications."""

    #: Short name used in figures ("BFS", "CC", "MLP", ...).
    name: str = "?"
    #: Main communication pattern label ("RS", "AR", "A2A").
    comm: str = "?"

    @abstractmethod
    def phases(self, machine: MachineConfig) -> list[WorkloadPhase]:
        """The workload's phase list for ``machine``."""

    def description(self) -> str:
        return self.__doc__.strip().splitlines()[0] if self.__doc__ else ""

    def expected_comm_volume(
        self, machine: MachineConfig
    ) -> dict[str, int] | None:
        """Closed-form per-pattern payload bytes, or ``None``.

        Workloads with an analytically known communication volume (the
        PrIM tier, APSP) return ``{pattern label: total payload bytes}``
        computed *from their parameters alone* — never by walking
        :meth:`phases` — so the differential harness can hold the phase
        list and the functional decomposition against an independent
        closed form.
        """
        return None


@dataclass(frozen=True)
class CommTraceEntry:
    """One collective of a workload's trace, in phase order."""

    phase: str
    pattern: str          # Table VII label ("AR", "AG", "BC", ...)
    payload_bytes: int    # per-DPU contribution of one repeat
    repeat: int
    root: int = 0

    @property
    def total_bytes(self) -> int:
        return self.payload_bytes * self.repeat


def comm_trace(
    workload: Workload, machine: MachineConfig
) -> tuple[CommTraceEntry, ...]:
    """The workload's per-phase collective trace on ``machine``."""
    entries = []
    for phase in workload.phases(machine):
        if isinstance(phase, CommPhase):
            request = phase.request
            entries.append(
                CommTraceEntry(
                    phase=phase.name,
                    pattern=PATTERN_LABEL[request.pattern],
                    payload_bytes=request.payload_bytes,
                    repeat=phase.repeat,
                    root=request.root,
                )
            )
    return tuple(entries)


def collective_volume(
    workload: Workload, machine: MachineConfig
) -> dict[str, int]:
    """Total payload bytes per pattern label, summed over the trace."""
    volume: dict[str, int] = {}
    for entry in comm_trace(workload, machine):
        volume[entry.pattern] = (
            volume.get(entry.pattern, 0) + entry.total_bytes
        )
    return volume


@dataclass(frozen=True)
class AppResult:
    """Execution-time breakdown of one workload on one backend."""

    workload: str
    backend: str
    compute_s: float
    comm: CommBreakdown
    num_collectives: int
    phase_times: tuple[tuple[str, float], ...] = ()

    @property
    def comm_s(self) -> float:
        return self.comm.total_s

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s

    @property
    def comm_fraction(self) -> float:
        total = self.total_s
        return self.comm_s / total if total > 0 else 0.0

    def speedup_over(self, other: "AppResult") -> float:
        if self.total_s <= 0:
            raise WorkloadError("cannot compute speedup of a zero-time run")
        return other.total_s / self.total_s


class ExecutionEngine:
    """Times a workload's phases on one machine with one backend."""

    def __init__(
        self,
        machine: MachineConfig,
        backend: CollectiveBackend | str,
        num_tasklets: int = 16,
    ) -> None:
        self.machine = machine
        if isinstance(backend, str):
            backend = registry.create(backend, machine)
        self.backend = backend
        self.compute_model = ComputeModel(
            dpu=machine.system.dpu,
            profile=machine.compute,
            num_tasklets=num_tasklets,
            dma_bandwidth_bytes_per_s=(
                machine.pimnet.mram_wram_dma_bytes_per_s
            ),
        )

    def run(self, workload: Workload) -> AppResult:
        compute_s = 0.0
        stats = CommStats()
        phase_times: list[tuple[str, float]] = []
        for phase in workload.phases(self.machine):
            if isinstance(phase, ComputePhase):
                t = self.compute_model.phase_time_s(phase.work) * phase.repeat
                compute_s += t
                phase_times.append((phase.name, t))
            elif isinstance(phase, CommPhase):
                breakdown = self.backend.timing(phase.request).scaled(
                    phase.repeat
                )
                stats.add(breakdown)
                phase_times.append((phase.name, breakdown.total_s))
            else:  # pragma: no cover - type-guarded
                raise WorkloadError(f"unknown phase type {type(phase)}")
        return AppResult(
            workload=workload.name,
            backend=getattr(self.backend, "key", "?"),
            compute_s=compute_s,
            comm=stats.breakdown,
            num_collectives=stats.num_collectives,
            phase_times=tuple(phase_times),
        )


def compare_backends(
    workload: Workload,
    machine: MachineConfig,
    backend_keys: list[str],
    num_tasklets: int = 16,
) -> dict[str, AppResult]:
    """Run one workload across several backends (a Fig 10 bar group).

    Backends that cannot execute the workload's collectives (NDPBridge
    on reducing patterns) are silently skipped, mirroring the paper's
    per-workload backend selection.
    """
    results: dict[str, AppResult] = {}
    for key in backend_keys:
        backend = registry.create(key, machine)
        patterns = {
            phase.request.pattern
            for phase in workload.phases(machine)
            if isinstance(phase, CommPhase)
        }
        if not all(backend.supports(p) for p in patterns):
            continue
        engine = ExecutionEngine(machine, backend, num_tasklets)
        results[key] = engine.run(workload)
    return results
