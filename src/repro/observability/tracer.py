"""Span-based tracing for the PIMnet simulator.

A :class:`Span` is one named, attributed interval of work.  Spans nest:
entering a span while another is open makes it a child, so a traced
collective run yields the full hierarchy — request, backend timing,
schedule phases, NoC cycles — in one tree.

Every span carries **two clocks**:

* *wall time* — ``time.perf_counter()`` at enter/exit, measuring how
  long the simulator itself took;
* *simulated time* — an optional ``[sim_start_s, sim_end_s]`` window in
  the modeled machine's seconds (e.g. Algorithm 1 phase offsets), set
  explicitly via :meth:`Span.set_sim_window` or the ``sim_start_s`` /
  ``sim_end_s`` arguments.

The module-level helpers (:func:`trace_span`, :func:`current_span`)
dispatch to the *active* tracer.  When no tracer is installed — the
default — they return a shared no-op span, so instrumented hot paths pay
only one global read and one call per span.  Install a tracer with
:func:`use_tracer` (context manager) or :func:`set_active_tracer`.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from ..errors import ObservabilityError

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "Span",
    "Tracer",
    "active_tracer",
    "current_span",
    "set_active_tracer",
    "trace_span",
    "traced",
    "tracing_active",
    "use_tracer",
]


class Span:
    """One named interval, with attributes, children, and two clocks."""

    __slots__ = (
        "name",
        "category",
        "attributes",
        "children",
        "wall_start_s",
        "wall_end_s",
        "sim_start_s",
        "sim_end_s",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        category: str = "repro",
        attributes: dict[str, Any] | None = None,
        sim_start_s: float | None = None,
        sim_end_s: float | None = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if not name:
            raise ObservabilityError("span name must be non-empty")
        self.name = name
        self.category = category
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.children: list[Span] = []
        self.wall_start_s: float | None = None
        self.wall_end_s: float | None = None
        self.sim_start_s = sim_start_s
        self.sim_end_s = sim_end_s
        self._tracer = tracer

    # -- recording ---------------------------------------------------------------
    def set_attributes(self, **attributes: Any) -> "Span":
        self.attributes.update(attributes)
        return self

    def set_sim_window(self, start_s: float, end_s: float) -> "Span":
        """Place this span on the simulated-time axis."""
        if end_s < start_s:
            raise ObservabilityError(
                f"simulated window ends ({end_s}) before it starts "
                f"({start_s})"
            )
        self.sim_start_s = start_s
        self.sim_end_s = end_s
        return self

    # -- durations ---------------------------------------------------------------
    @property
    def wall_duration_s(self) -> float | None:
        if self.wall_start_s is None or self.wall_end_s is None:
            return None
        return self.wall_end_s - self.wall_start_s

    @property
    def sim_duration_s(self) -> float | None:
        if self.sim_start_s is None or self.sim_end_s is None:
            return None
        return self.sim_end_s - self.sim_start_s

    @property
    def has_sim_window(self) -> bool:
        return self.sim_start_s is not None and self.sim_end_s is not None

    # -- traversal ---------------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    # -- context manager ---------------------------------------------------------
    def __enter__(self) -> "Span":
        if self._tracer is None:
            raise ObservabilityError(
                "span is not bound to a tracer; use Tracer.span()"
            )
        self._tracer._push(self)
        self.wall_start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_end_s = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, category={self.category!r}, "
            f"children={len(self.children)})"
        )


class NullSpan:
    """Shared do-nothing span returned when tracing is disabled.

    Stateless, so one singleton serves every disabled call site — the
    zero-overhead path the acceptance criteria demand.
    """

    __slots__ = ()

    def set_attributes(self, **attributes: Any) -> "NullSpan":
        return self

    def set_sim_window(self, start_s: float, end_s: float) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton no-op span.
NULL_SPAN = NullSpan()


class Tracer:
    """Collects a forest of spans for one instrumented run."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- span creation -----------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "repro",
        sim_start_s: float | None = None,
        sim_end_s: float | None = None,
        **attributes: Any,
    ) -> Span:
        """A new span; enter it (``with``) to place it in the tree."""
        return Span(
            name,
            category=category,
            attributes=attributes,
            sim_start_s=sim_start_s,
            sim_end_s=sim_end_s,
            tracer=self,
        )

    def record(
        self,
        name: str,
        sim_start_s: float,
        sim_end_s: float,
        category: str = "repro",
        **attributes: Any,
    ) -> Span:
        """Add an already-closed span covering a simulated-time window."""
        with self.span(
            name,
            category=category,
            sim_start_s=sim_start_s,
            sim_end_s=sim_end_s,
            **attributes,
        ) as span:
            pass
        return span

    # -- stack plumbing ----------------------------------------------------------
    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ObservabilityError(
                f"span {span.name!r} exited out of order"
            )
        self._stack.pop()

    # -- queries -----------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def clear(self) -> None:
        if self._stack:
            raise ObservabilityError("cannot clear a tracer with open spans")
        self.roots.clear()


# --------------------------------------------------------------------------
# Active-tracer dispatch (the seam instrumented library code goes through).
# --------------------------------------------------------------------------

_ACTIVE_TRACER: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The tracer instrumented code currently reports to (None = off)."""
    return _ACTIVE_TRACER


def tracing_active() -> bool:
    """Whether a tracer is installed.

    Hot paths check this before building span names/attributes, so the
    disabled default pays one global read instead of string formatting.
    """
    return _ACTIVE_TRACER is not None


def set_active_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` globally; returns the previous tracer."""
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | None) -> Iterator[Tracer | None]:
    """Scoped :func:`set_active_tracer`; restores the previous tracer."""
    previous = set_active_tracer(tracer)
    try:
        yield tracer
    finally:
        set_active_tracer(previous)


def trace_span(
    name: str,
    category: str = "repro",
    sim_start_s: float | None = None,
    sim_end_s: float | None = None,
    **attributes: Any,
) -> Span | NullSpan:
    """A span on the active tracer, or the no-op span when tracing is off."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(
        name,
        category=category,
        sim_start_s=sim_start_s,
        sim_end_s=sim_end_s,
        **attributes,
    )


def current_span() -> Span | NullSpan:
    """The innermost open span, or the no-op span when tracing is off."""
    tracer = _ACTIVE_TRACER
    if tracer is None or tracer.current is None:
        return NULL_SPAN
    return tracer.current


def traced(
    name: str | None = None, category: str = "repro"
) -> Callable[[Callable], Callable]:
    """Decorator: wrap each call of the function in a span.

    Resolution happens at call time, so functions decorated at import
    stay free when no tracer is active.
    """

    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _ACTIVE_TRACER
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label, category=category):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
