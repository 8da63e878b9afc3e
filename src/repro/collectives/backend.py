"""Abstract collective backend and the backend registry.

A backend pairs the shared functional semantics
(:mod:`repro.collectives.functional`) with its own timing model.  The
five comparison points of the paper (B, S, Max-DRAM-BW, D, N) live in
this package; the PIMnet backend (P) lives with the core contribution in
:mod:`repro.core`.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..config.presets import MachineConfig
from ..errors import BackendError, CollectiveError, ReproError
from ..observability import (
    NULL_SPAN,
    metric_counter,
    metric_histogram,
    observability_active,
    trace_span,
)
from . import functional
from .patterns import Collective, CollectiveRequest
from .result import CollectiveResult, CommBreakdown


def _instrumented_timing(inner: Callable) -> Callable:
    """Wrap a backend's ``timing`` with tracing, metrics, and context.

    Applied automatically to every concrete backend via
    ``CollectiveBackend.__init_subclass__``, so each timing call (a) is
    recorded as a span with the request and breakdown attached, (b)
    feeds the per-backend duration histogram and byte counters, and (c)
    re-raises library errors annotated with the backend key and request
    summary, so failures deep in a timing model stay attributable.
    """

    def reraise_annotated(self, request, exc):
        annotated = exc.with_context(
            f"backend={self.key} ({self.name}), "
            f"request={request.summary()}"
        )
        if annotated is exc:
            raise
        raise annotated from exc

    @functools.wraps(inner)
    def timing(self, request: CollectiveRequest) -> CommBreakdown:
        if not observability_active():
            # Fast path: no sinks installed, so pay nothing beyond this
            # check — errors still get backend/request context.
            try:
                return inner(self, request)
            except ReproError as exc:
                reraise_annotated(self, request, exc)
        with trace_span(
            f"timing/{self.key}",
            category="backend",
            backend=self.key,
            backend_name=self.name,
            request=request.summary(),
        ) as span:
            try:
                breakdown = inner(self, request)
            except ReproError as exc:
                reraise_annotated(self, request, exc)
            span.set_sim_window(0.0, breakdown.total_s)
            span.set_attributes(
                **{k: v for k, v in breakdown.as_dict().items() if v}
            )
            metric_counter("collective.requests").inc()
            metric_counter("collective.payload_bytes").inc(
                request.payload_bytes
            )
            metric_histogram(f"backend.{self.key}.timing_s").observe(
                breakdown.total_s
            )
            metric_histogram(
                "collective.latency_s",
                {
                    "backend": self.key,
                    "collective": request.pattern.value,
                },
            ).observe(breakdown.total_s)
            return breakdown

    timing._repro_instrumented = True  # type: ignore[attr-defined]
    return timing


class CollectiveBackend(ABC):
    """Base class: functional execution + backend-specific timing.

    A backend is constructed for one machine; its scope is all DPUs of
    that machine's (single) channel.  Multi-channel systems compose
    per-channel collectives at the workload layer.
    """

    #: Short key used in figures ("B", "S", "D", "N", "P", ...).
    key: str = "?"
    #: Human-readable name.
    name: str = "abstract"

    def __init__(self, machine: MachineConfig) -> None:
        if machine.system.num_channels != 1:
            raise BackendError(
                "collective backends operate on one memory channel; "
                "use per-channel machines and compose above"
            )
        self.machine = machine

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        timing = cls.__dict__.get("timing")
        if timing is not None and not getattr(
            timing, "_repro_instrumented", False
        ):
            cls.timing = _instrumented_timing(timing)

    # -- shape shortcuts ---------------------------------------------------------
    @property
    def num_dpus(self) -> int:
        return self.machine.system.banks_per_channel

    @property
    def banks_per_chip(self) -> int:
        return self.machine.system.banks_per_chip

    @property
    def chips_per_rank(self) -> int:
        return self.machine.system.chips_per_rank

    @property
    def num_ranks(self) -> int:
        return self.machine.system.ranks_per_channel

    # -- interface ------------------------------------------------------------------
    def supports(self, pattern: Collective) -> bool:
        """Whether this backend can execute ``pattern`` at all."""
        return True

    @abstractmethod
    def timing(self, request: CollectiveRequest) -> CommBreakdown:
        """Time model for one collective; no data movement."""

    def schedule(self, request: CollectiveRequest):
        """The backend's fully resolved static schedule for ``request``.

        Only backends with statically scheduled fabrics (PIMnet) expose
        one; host-mediated and prior-work baselines route through the
        host or buffer chips dynamically and have nothing to compile.
        Overriders should serve repeated structures from
        :mod:`repro.schedcache` rather than recompiling.
        """
        raise BackendError(
            f"{self.name} has no static communication schedule"
        )

    def schedule_times(self, request: CollectiveRequest):
        """Per-tier link-load times of the backend's static schedule.

        Raises for backends without one (see :meth:`schedule`).
        """
        raise BackendError(
            f"{self.name} has no static communication schedule"
        )

    def run(
        self,
        request: CollectiveRequest,
        buffers: list[np.ndarray] | None = None,
    ) -> CollectiveResult:
        """Execute ``request``: timing always, data movement if buffers given."""
        if observability_active():
            span = trace_span(
                f"collective/{self.key}",
                category="collective",
                backend=self.key,
                request=request.summary(),
                functional=buffers is not None,
            )
        else:
            span = NULL_SPAN
        with span:
            if not self.supports(request.pattern):
                raise BackendError(
                    f"{self.name} does not support {request.pattern.value}"
                )
            request.validate_for(self.num_dpus)
            outputs = None
            if buffers is not None:
                if len(buffers) != self.num_dpus:
                    raise CollectiveError(
                        f"got {len(buffers)} buffers for {self.num_dpus} DPUs"
                    )
                with trace_span("functional/execute", category="collective"):
                    outputs = functional.execute(request, buffers)
            return CollectiveResult(
                breakdown=self.timing(request),
                outputs=outputs,
                backend_name=self.name,
            )

    # -- shared timing helpers ---------------------------------------------------
    @staticmethod
    def ring_phase_bytes(num_nodes: int, payload_bytes: float) -> float:
        """Bytes each node sends in one ring Reduce-Scatter (or AllGather).

        A ring RS over n nodes moves (n-1)/n of the payload per node; a
        single node moves nothing.
        """
        if num_nodes < 1:
            raise CollectiveError("ring needs >= 1 node")
        if num_nodes == 1:
            return 0.0
        return payload_bytes * (num_nodes - 1) / num_nodes


class BackendRegistry:
    """Name -> factory registry so experiments can enumerate backends."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[MachineConfig], CollectiveBackend]] = {}

    def register(
        self, key: str, factory: Callable[[MachineConfig], CollectiveBackend]
    ) -> None:
        if key in self._factories:
            raise BackendError(f"backend key {key!r} already registered")
        self._factories[key] = factory

    def create(self, key: str, machine: MachineConfig) -> CollectiveBackend:
        if key not in self._factories:
            raise BackendError(
                f"unknown backend {key!r}; known: {sorted(self._factories)}"
            )
        return self._factories[key](machine)

    def keys(self) -> list[str]:
        return sorted(self._factories)


#: Global registry; populated by backend modules at import time.
registry = BackendRegistry()
