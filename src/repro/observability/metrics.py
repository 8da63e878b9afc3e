"""Counters, gauges, and histograms for instrumented simulator runs.

A :class:`MetricsRegistry` owns named instruments; instrumented library
code reaches the active registry through the module-level helpers
(:func:`metric_counter`, :func:`metric_gauge`, :func:`metric_histogram`).
When no registry is installed — the default — those helpers hand back
shared no-op instruments, so disabled metrics cost one global read and
one method call per update.

Instruments come in **labeled families**: ``metric_histogram(
"tenant.request_latency_s", labels={"tenant": "CC"})`` creates one
child per distinct label set under a common family name, the way
Prometheus client libraries do.  Unlabeled instruments behave exactly
as before.  Histograms are backed by the shared
:class:`~repro.observability.histo.LogBucketSketch`, so p50/p90/p99/p999
come from one percentile engine everywhere.

Registries are **mergeable**: :meth:`MetricsRegistry.to_dict` is a
JSON-able full snapshot and :meth:`MetricsRegistry.merge` folds one
into another (counters add, gauges keep the peak, histograms merge
their sketches) — how worker-process metrics from a ``--jobs N`` sweep
fold back into the parent registry.

Conventions: dotted lower-case names (``pimnet.tier.bank_s``,
``noc.flits_delivered``); counters for monotonically accumulated totals
(bytes moved, flits delivered), gauges for last-value observations (peak
buffer occupancy), histograms for per-event distributions (phase
durations, collective times).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from ..errors import ObservabilityError
from .histo import LogBucketSketch

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "active_metrics",
    "instrument_key",
    "metric_counter",
    "metric_gauge",
    "metric_histogram",
    "metrics_active",
    "set_active_metrics",
    "use_metrics",
]


def _normalize_labels(
    labels: Mapping[str, Any] | None,
) -> tuple[tuple[str, str], ...]:
    """Sorted, stringified label pairs (the canonical child identity)."""
    if not labels:
        return ()
    for key in labels:
        if not key:
            raise ObservabilityError("label names must be non-empty")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def instrument_key(
    name: str, labels: Mapping[str, Any] | None = None
) -> str:
    """Registry key of one instrument: ``name`` or ``name{k=v,...}``."""
    pairs = _normalize_labels(labels)
    if not pairs:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in pairs)
    return f"{name}{{{rendered}}}"


class _Labeled:
    """Shared identity plumbing for the three instrument kinds."""

    __slots__ = ()

    name: str
    labels: dict[str, str]

    def _init_identity(
        self, name: str, labels: Mapping[str, Any] | None
    ) -> None:
        self.name = name
        self.labels = dict(_normalize_labels(labels))

    def _identity_snapshot(self) -> dict[str, Any]:
        return {"labels": self.labels} if self.labels else {}


class Counter(_Labeled):
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value", "updates")

    kind = "counter"

    def __init__(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> None:
        self._init_identity(name, labels)
        self.value: float = 0.0
        self.updates: int = 0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount
        self.updates += 1

    def merge(self, other: "Counter") -> None:
        self.value += other.value
        self.updates += other.updates

    def snapshot(self) -> dict[str, Any]:
        return {
            **self._identity_snapshot(),
            "value": self.value,
            "updates": self.updates,
        }


class Gauge(_Labeled):
    """A last-value observation."""

    __slots__ = ("name", "labels", "value", "updates")

    kind = "gauge"

    def __init__(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> None:
        self._init_identity(name, labels)
        self.value: float | None = None
        self.updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def max(self, value: float) -> None:
        """Keep the running maximum (handy for peak occupancies)."""
        if self.value is None or value > self.value:
            self.value = value
        self.updates += 1

    def merge(self, other: "Gauge") -> None:
        """Keep the peak: cross-process "last value" has no order, and
        every merged gauge in the repo records a running maximum."""
        if other.value is not None and (
            self.value is None or other.value > self.value
        ):
            self.value = other.value
        self.updates += other.updates

    def snapshot(self) -> dict[str, Any]:
        return {
            **self._identity_snapshot(),
            "value": self.value,
            "updates": self.updates,
        }


class Histogram(_Labeled):
    """A distribution of observed values, backed by the shared sketch.

    Small histograms (the overwhelmingly common case) retain raw samples
    for exact nearest-rank percentiles; past
    :data:`~repro.observability.histo.DEFAULT_MAX_EXACT` observations
    the sketch collapses to log buckets with a bounded relative error.
    """

    __slots__ = ("name", "labels", "sketch")

    kind = "histogram"

    def __init__(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> None:
        self._init_identity(name, labels)
        self.sketch = LogBucketSketch()

    def observe(self, value: float) -> None:
        self.sketch.observe(value)

    @property
    def count(self) -> int:
        return self.sketch.count

    @property
    def sum(self) -> float:
        return self.sketch.sum

    @property
    def mean(self) -> float | None:
        return self.sketch.mean

    @property
    def samples(self) -> list[float]:
        """Raw samples while the sketch is exact (the common case)."""
        retained = self.sketch.samples
        if retained is None:
            raise ObservabilityError(
                f"histogram {self.name!r} collapsed to log buckets; "
                "raw samples are no longer retained"
            )
        return retained

    def percentile(self, q: float) -> float | None:
        """Nearest-rank q-th percentile (0 <= q <= 100); None if empty."""
        if not 0 <= q <= 100:
            raise ObservabilityError(f"percentile {q} outside [0, 100]")
        if self.sketch.count == 0:
            return None
        if q == 0:
            return self.sketch.min
        return self.sketch.quantile(q)

    def merge(self, other: "Histogram") -> None:
        self.sketch.merge(other.sketch)

    def snapshot(self) -> dict[str, Any]:
        if self.count == 0:
            return {**self._identity_snapshot(), "count": 0}
        return {**self._identity_snapshot(), **self.sketch.snapshot()}


class _NullInstrument:
    """Absorbs every update; one instance per instrument kind."""

    __slots__ = ()

    name = "<disabled>"
    labels: dict[str, str] = {}

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullInstrument()
NULL_GAUGE = _NullInstrument()
NULL_HISTOGRAM = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one instrumented run."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        #: family name -> kind, enforcing one kind per family across
        #: every label set.
        self._family_kind: dict[str, str] = {}

    # -- instrument access (memoized by name + labels) ----------------------------
    def counter(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> Counter:
        key = instrument_key(name, labels)
        instrument = self.counters.get(key)
        if instrument is None:
            self._check_name(name, "counter")
            instrument = self.counters[key] = Counter(name, labels)
        return instrument

    def gauge(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> Gauge:
        key = instrument_key(name, labels)
        instrument = self.gauges.get(key)
        if instrument is None:
            self._check_name(name, "gauge")
            instrument = self.gauges[key] = Gauge(name, labels)
        return instrument

    def histogram(
        self, name: str, labels: Mapping[str, Any] | None = None
    ) -> Histogram:
        key = instrument_key(name, labels)
        instrument = self.histograms.get(key)
        if instrument is None:
            self._check_name(name, "histogram")
            instrument = self.histograms[key] = Histogram(name, labels)
        return instrument

    def _check_name(self, name: str, kind: str) -> None:
        if not name:
            raise ObservabilityError("metric name must be non-empty")
        existing = self._family_kind.get(name)
        if existing is not None and existing != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered with a different kind"
            )
        self._family_kind[name] = kind

    # -- merge -------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or its ``to_dict`` form) into this one.

        Counters add, gauges keep the peak value, histograms merge their
        sketches.  Instruments missing on this side are created.  This
        is how metrics recorded inside PR 2 worker processes reach the
        parent registry.
        """
        if not isinstance(other, MetricsRegistry):
            other = MetricsRegistry.from_dict(other)
        for instrument in other.all_instruments():
            accessor = getattr(self, instrument.kind)
            accessor(instrument.name, instrument.labels).merge(instrument)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able *full* state (samples included), for merging.

        Unlike :meth:`snapshot` — a human-facing summary — this form
        round-trips through :meth:`from_dict` losslessly, so it can
        cross a process boundary with a worker result.
        """
        histograms = {}
        for key, h in self.histograms.items():
            histograms[key] = {
                "name": h.name,
                "labels": h.labels,
                "sketch": h.sketch.to_dict(),
            }
        return {
            "counters": {
                key: {"name": c.name, "labels": c.labels,
                      "value": c.value, "updates": c.updates}
                for key, c in self.counters.items()
            },
            "gauges": {
                key: {"name": g.name, "labels": g.labels,
                      "value": g.value, "updates": g.updates}
                for key, g in self.gauges.items()
            },
            "histograms": histograms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        for entry in data.get("counters", {}).values():
            counter = registry.counter(entry["name"], entry.get("labels"))
            counter.value = float(entry["value"])
            counter.updates = int(entry["updates"])
        for entry in data.get("gauges", {}).values():
            gauge = registry.gauge(entry["name"], entry.get("labels"))
            gauge.value = (
                None if entry["value"] is None else float(entry["value"])
            )
            gauge.updates = int(entry["updates"])
        for entry in data.get("histograms", {}).values():
            histogram = registry.histogram(
                entry["name"], entry.get("labels")
            )
            histogram.sketch = LogBucketSketch.from_dict(entry["sketch"])
        return registry

    # -- export ------------------------------------------------------------------
    def all_instruments(self) -> list[Counter | Gauge | Histogram]:
        instruments: list[Counter | Gauge | Histogram] = []
        for family in (self.counters, self.gauges, self.histograms):
            instruments.extend(family[k] for k in sorted(family))
        return instruments

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{key: {"kind": ..., **stats}}`` for every instrument.

        Keys are ``name`` for unlabeled instruments and
        ``name{k=v,...}`` for labeled children.
        """
        return {
            instrument_key(instrument.name, instrument.labels): {
                "kind": instrument.kind,
                **instrument.snapshot(),
            }
            for instrument in self.all_instruments()
        }


# --------------------------------------------------------------------------
# Active-registry dispatch.
# --------------------------------------------------------------------------

_ACTIVE_METRICS: MetricsRegistry | None = None


def active_metrics() -> MetricsRegistry | None:
    """The registry instrumented code currently reports to (None = off)."""
    return _ACTIVE_METRICS


def metrics_active() -> bool:
    """Whether a registry is installed (see ``tracing_active``)."""
    return _ACTIVE_METRICS is not None


def set_active_metrics(
    registry: MetricsRegistry | None,
) -> MetricsRegistry | None:
    """Install ``registry`` globally; returns the previous registry."""
    global _ACTIVE_METRICS
    previous = _ACTIVE_METRICS
    _ACTIVE_METRICS = registry
    return previous


@contextmanager
def use_metrics(
    registry: MetricsRegistry | None,
) -> Iterator[MetricsRegistry | None]:
    """Scoped :func:`set_active_metrics`; restores the previous registry."""
    previous = set_active_metrics(registry)
    try:
        yield registry
    finally:
        set_active_metrics(previous)


def metric_counter(
    name: str, labels: Mapping[str, Any] | None = None
) -> Counter | _NullInstrument:
    registry = _ACTIVE_METRICS
    if registry is None:
        return NULL_COUNTER
    return registry.counter(name, labels)


def metric_gauge(
    name: str, labels: Mapping[str, Any] | None = None
) -> Gauge | _NullInstrument:
    registry = _ACTIVE_METRICS
    if registry is None:
        return NULL_GAUGE
    return registry.gauge(name, labels)


def metric_histogram(
    name: str, labels: Mapping[str, Any] | None = None
) -> Histogram | _NullInstrument:
    registry = _ACTIVE_METRICS
    if registry is None:
        return NULL_HISTOGRAM
    return registry.histogram(name, labels)
