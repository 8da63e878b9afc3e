"""Delta-debugging shrinker and self-contained JSON reproducers.

When a matrix point fails, the raw coordinates are rarely the minimal
story — a 16-DPU, 4 KiB divergence is usually also a 2-DPU, 256 B
divergence, and the small one is the one a human can stare at.  The
shrinker greedily halves each axis (payload, banks, chips, ranks) and
keeps any candidate on which the failure *persists*, looping until no
halving reproduces it.  Candidates that are structurally infeasible
(payload no longer divides the shape, mutation has no target) are
skipped, not counted as passes.

The result is written as a self-contained reproducer: point, config,
mutation, and the failing report, replayable via
``repro conformance shrink file.json`` or :func:`replay_reproducer`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from ..config.conformance import ConformanceConfig
from ..config.network import PimnetNetworkConfig
from ..errors import ConformanceError
from ..observability import metric_counter, trace_span
from .engine import run_point
from .matrix import ConformancePoint
from .mutate import Mutation

#: Identifies a reproducer file; bump ``REPRODUCER_VERSION`` on schema
#: changes.
REPRODUCER_FORMAT = "repro-conformance-reproducer"
REPRODUCER_VERSION = 1


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one shrink: where it started, where it landed."""

    original: ConformancePoint
    point: ConformancePoint
    report: dict
    attempts: int


def _candidates(point: ConformancePoint) -> list[ConformancePoint]:
    """The halved neighbors of ``point``, smallest-axis-impact first."""
    out = []
    if point.payload_bytes >= 2:
        out.append(replace(point, payload_bytes=point.payload_bytes // 2))
    for axis in ("banks", "chips", "ranks"):
        value = getattr(point, axis)
        if value >= 2:
            out.append(replace(point, **{axis: value // 2}))
    return out


def shrink_point(
    point: ConformancePoint,
    config: ConformanceConfig | None = None,
    network: PimnetNetworkConfig | None = None,
    mutation: Mutation | None = None,
    max_attempts: int = 128,
) -> ShrinkResult:
    """Minimize a failing point while the failure persists.

    ``point`` itself must fail its checks (or raise for infeasibility —
    that is a :class:`ConformanceError` here too, since there is nothing
    to shrink).  Deterministic: candidate order is fixed and every
    replay derives its RNG streams from ``(config, mutation, point)``.
    """
    config = config or ConformanceConfig()
    first = run_point(point, config, network=network, mutation=mutation)
    if first["ok"]:
        raise ConformanceError(
            f"point {point.label()} passes all checks; nothing to shrink"
        )
    with trace_span(
        "conformance/shrink", category="conformance", point=point.label()
    ) as span:
        current, report = point, first
        attempts = 0
        progressed = True
        while progressed and attempts < max_attempts:
            progressed = False
            for candidate in _candidates(current):
                if attempts >= max_attempts:
                    break
                attempts += 1
                try:
                    result = run_point(
                        candidate, config, network=network,
                        mutation=mutation,
                    )
                except ConformanceError:
                    continue  # infeasible candidate, not a pass
                if not result["ok"]:
                    current, report = candidate, result
                    progressed = True
                    break
        metric_counter("conformance.shrink.attempts").inc(attempts)
        span.set_attributes(
            attempts=attempts, minimized=current.label()
        )
        return ShrinkResult(
            original=point, point=current, report=report, attempts=attempts
        )


def reproducer_payload(
    result: ShrinkResult,
    config: ConformanceConfig,
    mutation: Mutation | None = None,
) -> dict:
    """The self-contained JSON form of a shrunk failure."""
    return {
        "format": REPRODUCER_FORMAT,
        "version": REPRODUCER_VERSION,
        "point": result.point.params,
        "original_point": result.original.params,
        "config": config.as_dict(),
        "mutation": mutation.as_dict() if mutation else None,
        "attempts": result.attempts,
        "report": result.report,
    }


def write_reproducer(
    path: str | Path,
    result: ShrinkResult,
    config: ConformanceConfig,
    mutation: Mutation | None = None,
) -> Path:
    """Write the reproducer for ``result`` to ``path``; returns it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = reproducer_payload(result, config, mutation)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_reproducer(path: str | Path) -> dict:
    """Read and structurally validate a reproducer file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ConformanceError(
            f"cannot read reproducer {path}: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise ConformanceError(f"reproducer {path} is not a JSON object")
    if data.get("format") != REPRODUCER_FORMAT:
        raise ConformanceError(
            f"{path} is not a conformance reproducer "
            f"(format {data.get('format')!r})"
        )
    if data.get("version") != REPRODUCER_VERSION:
        raise ConformanceError(
            f"reproducer {path} has version {data.get('version')!r}, "
            f"expected {REPRODUCER_VERSION}"
        )
    if "point" not in data:
        raise ConformanceError(f"reproducer {path} is missing 'point'")
    return data


def replay_reproducer(
    data: dict, network: PimnetNetworkConfig | None = None
) -> dict:
    """Re-run the checks a reproducer pins; returns the fresh report.

    Uses only the reproducer's point/config/mutation — the stored
    ``report`` is what the failure looked like when captured, the
    return value is what it looks like now.
    """
    point = ConformancePoint.from_params(data["point"])
    config = ConformanceConfig.from_dict(data.get("config") or {})
    mutation_data = data.get("mutation")
    mutation = (
        Mutation.from_dict(mutation_data) if mutation_data else None
    )
    return run_point(point, config, network=network, mutation=mutation)
