"""Declarative service-level objectives evaluated against metrics.

An :class:`SloObjective` names one statistic of one instrument —
``p99`` of a latency histogram, ``value`` of a counter, optionally as a
**rate** over a second counter — and a comparison against a threshold::

    objectives = [
        SloObjective("faults.latency_s", "p99", "<", 20e-3),
        SloObjective("faults.aborted", "value", "<=", 0.01,
                     per="faults.trials"),
        SloObjective("tenant.request_latency_s", "p50", "<", 1e-3,
                     labels={"tenant": "CC"}),
    ]
    report = evaluate_slos(registry, objectives)
    print(report.format())
    assert report.ok

Objectives serialize to/from plain dicts (``repro faults run --slo
objectives.json``), so SLO policies live next to campaign specs as
reviewable JSON.  A missing instrument fails its objective — an SLO on
a metric nothing recorded is a bug in the policy or the wiring, and
silence would hide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from ..errors import ObservabilityError
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, instrument_key

__all__ = [
    "SloCheck",
    "SloObjective",
    "SloReport",
    "evaluate_slos",
    "load_objectives",
]

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Quantile stats, mapped explicitly to the percentile handed to
#: ``LogBucketSketch.quantile`` — ``p999`` means the 99.9th percentile,
#: never ``q=999`` (which ``nearest_rank`` would reject only at call
#: time, and only after the objective had already been accepted).
_QUANTILE_STATS = {
    "p50": 50.0,
    "p90": 90.0,
    "p99": 99.0,
    "p999": 99.9,
}

#: Statistics resolvable on a histogram instrument.
_HISTOGRAM_STATS = (
    *_QUANTILE_STATS, "mean", "min", "max", "count", "sum",
)


@dataclass(frozen=True)
class SloObjective:
    """One objective: ``stat(metric[labels]) [/ per] op threshold``."""

    metric: str
    stat: str
    op: str
    threshold: float
    labels: Mapping[str, str] | None = None
    #: Optional denominator counter (same labels), turning the check
    #: into a rate: ``value(metric) / value(per) op threshold``.
    per: str | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ObservabilityError(
                f"SLO op must be one of {sorted(_OPS)}, got {self.op!r}"
            )
        if not self.metric:
            raise ObservabilityError("SLO metric name must be non-empty")

    def describe(self) -> str:
        if self.name:
            return self.name
        target = instrument_key(self.metric, self.labels)
        expr = f"{self.stat}({target})"
        if self.per:
            expr += f" / value({self.per})"
        return f"{expr} {self.op} {self.threshold:g}"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "threshold": self.threshold,
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        if self.per:
            data["per"] = self.per
        if self.name:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SloObjective":
        unknown = set(data) - {
            "metric", "stat", "op", "threshold", "labels", "per", "name"
        }
        if unknown:
            raise ObservabilityError(
                f"unknown SLO objective field(s): {sorted(unknown)}"
            )
        try:
            return cls(
                metric=str(data["metric"]),
                stat=str(data.get("stat", "value")),
                op=str(data["op"]),
                threshold=float(data["threshold"]),
                labels=dict(data["labels"]) if data.get("labels") else None,
                per=data.get("per"),
                name=str(data.get("name", "")),
            )
        except KeyError as exc:
            raise ObservabilityError(
                f"SLO objective missing required field {exc.args[0]!r}"
            ) from exc


@dataclass(frozen=True)
class SloCheck:
    """One evaluated objective."""

    objective: SloObjective
    observed: float | None
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "objective": self.objective.to_dict(),
            "observed": self.observed,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SloReport:
    """Every objective's verdict against one metrics snapshot."""

    checks: tuple[SloCheck, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def violations(self) -> tuple[SloCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def format(self) -> str:
        if not self.checks:
            return "(no SLO objectives)"
        lines = []
        for check in self.checks:
            status = "ok  " if check.passed else "FAIL"
            observed = (
                "n/a" if check.observed is None else f"{check.observed:g}"
            )
            line = (
                f"  {status} {check.objective.describe()}"
                f"  [observed {observed}]"
            )
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        verdict = "all objectives met" if self.ok else (
            f"{len(self.violations)} of {len(self.checks)} objectives "
            "violated"
        )
        return "SLO report: " + verdict + "\n" + "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }


def _resolve_stat(
    instrument: Counter | Gauge | Histogram, stat: str
) -> tuple[float | None, str]:
    """(observed value, failure detail) for one instrument statistic."""
    if isinstance(instrument, Histogram):
        if stat not in _HISTOGRAM_STATS:
            return None, (
                f"histogram stat must be one of {_HISTOGRAM_STATS}, "
                f"got {stat!r}"
            )
        if stat in ("count", "sum"):
            return float(getattr(instrument, stat)), ""
        if instrument.count == 0:
            return None, "histogram has no observations"
        sketch = instrument.sketch
        if stat == "mean":
            return sketch.mean, ""
        if stat == "min":
            return sketch.min, ""
        if stat == "max":
            return sketch.max, ""
        return sketch.quantile(_QUANTILE_STATS[stat]), ""
    if stat != "value":
        return None, f"{instrument.kind} supports only stat 'value'"
    if instrument.value is None:
        return None, "gauge never set"
    return float(instrument.value), ""


def _find(
    registry: MetricsRegistry, metric: str, labels: Mapping[str, str] | None
) -> Counter | Gauge | Histogram | None:
    key = instrument_key(metric, labels)
    for family in (
        registry.histograms, registry.counters, registry.gauges
    ):
        if key in family:
            return family[key]
    return None


def evaluate_slos(
    registry: MetricsRegistry,
    objectives: Iterable[SloObjective | Mapping[str, Any]],
) -> SloReport:
    """Evaluate every objective against ``registry``'s current state."""
    checks: list[SloCheck] = []
    for objective in objectives:
        if not isinstance(objective, SloObjective):
            objective = SloObjective.from_dict(objective)
        instrument = _find(registry, objective.metric, objective.labels)
        if instrument is None:
            checks.append(
                SloCheck(objective, None, False, "metric not recorded")
            )
            continue
        observed, detail = _resolve_stat(instrument, objective.stat)
        if observed is None:
            checks.append(SloCheck(objective, None, False, detail))
            continue
        if objective.per is not None:
            denominator = _find(registry, objective.per, objective.labels)
            if denominator is None or not isinstance(
                denominator, (Counter, Gauge)
            ):
                checks.append(
                    SloCheck(
                        objective, None, False,
                        f"rate denominator {objective.per!r} not recorded",
                    )
                )
                continue
            if not denominator.value:
                checks.append(
                    SloCheck(
                        objective, None, False,
                        f"rate denominator {objective.per!r} is zero",
                    )
                )
                continue
            observed = observed / float(denominator.value)
        checks.append(
            SloCheck(
                objective,
                observed,
                _OPS[objective.op](observed, objective.threshold),
            )
        )
    return SloReport(checks=tuple(checks))


def load_objectives(path: str) -> list[SloObjective]:
    """Objectives from a JSON file: a list, or ``{"objectives": [...]}``."""
    import json

    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ObservabilityError(f"SLO file {path}: {exc}") from exc
    if isinstance(data, Mapping):
        data = data.get("objectives", [])
    if not isinstance(data, Sequence) or isinstance(data, str):
        raise ObservabilityError(
            "SLO file must hold a list of objectives or "
            '{"objectives": [...]}'
        )
    return [SloObjective.from_dict(entry) for entry in data]
