"""HDR-style log-bucket latency sketch with exact small-sample mode.

:class:`LogBucketSketch` is the one percentile engine the repo shares:
metric histograms, fault-campaign latency statistics and per-tenant
request latencies all extract their p50/p90/p99/p999 from it, so every
report means the same thing by "p99".

Two regimes, switched automatically:

* **exact** — raw samples are retained while ``count <= max_exact``
  (simulator runs observe at most a few thousand values per histogram),
  and quantiles use the classic nearest-rank rule
  ``rank = max(1, ceil(q/100 * n))`` — deterministic, exact on small
  samples, and identical to the PR 4 campaign percentiles;
* **bucketed** — past the cap the samples collapse into logarithmic
  buckets (``buckets_per_decade`` per power of ten), bounding memory at
  a dict of occupied buckets while keeping every quantile within one
  bucket's relative error of the exact answer (the property tests pin
  this bound against numpy percentiles).

Sketches **merge**: ``a.merge(b)`` folds ``b``'s state into ``a``,
which is how worker-process metrics fold back into the parent registry
after a ``--jobs N`` sweep.  Merging is commutative and associative in
every reported statistic (count, sum, min, max, quantiles) — also
property-tested — because the exact→bucketed collapse is a pure
function of the combined count.

``to_dict()``/``from_dict()`` round-trip the full state through JSON,
so a sketch can cross a process boundary or live inside a metrics
dump.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from ..errors import ObservabilityError

__all__ = ["LogBucketSketch", "nearest_rank"]

#: Raw samples retained before collapsing to log buckets.
DEFAULT_MAX_EXACT = 4096

#: Log-bucket resolution: buckets per power of ten.  64 buckets/decade
#: means adjacent bucket edges differ by 10**(1/64) ~ 3.66%, which is
#: the worst-case relative quantile error in bucketed mode.
DEFAULT_BUCKETS_PER_DECADE = 64


def nearest_rank(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (``q`` in (0, 100]).

    ``rank = max(1, ceil(q/100 * n))`` — the convention the PR 4 fault
    campaigns established; exact and interpolation-free.
    """
    if not 0.0 < q <= 100.0:
        raise ObservabilityError(f"quantile q must be in (0, 100], got {q}")
    if not ordered:
        raise ObservabilityError("quantile of an empty sketch")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class LogBucketSketch:
    """Mergeable quantile sketch: exact when small, log-bucketed when big."""

    __slots__ = (
        "max_exact",
        "buckets_per_decade",
        "count",
        "sum",
        "min",
        "max",
        "_samples",
        "_buckets",
        "_nonpositive",
    )

    def __init__(
        self,
        max_exact: int = DEFAULT_MAX_EXACT,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> None:
        if max_exact < 0:
            raise ObservabilityError("max_exact must be >= 0")
        if buckets_per_decade < 1:
            raise ObservabilityError("buckets_per_decade must be >= 1")
        self.max_exact = max_exact
        self.buckets_per_decade = buckets_per_decade
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        #: Raw samples (exact mode), or None once bucketed.
        self._samples: list[float] | None = []
        #: bucket index -> count (bucketed mode); values <= 0 are kept
        #: out of the log buckets in a dedicated underflow count whose
        #: representative is the observed minimum.
        self._buckets: dict[int, int] | None = None
        self._nonpositive = 0

    # -- observation -------------------------------------------------------------
    @property
    def samples(self) -> list[float] | None:
        """The retained raw samples, or None once collapsed to buckets."""
        return None if self._samples is None else list(self._samples)

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ObservabilityError(
                f"sketch cannot observe non-finite value {value!r}"
            )
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self._samples is not None:
            self._samples.append(value)
            if len(self._samples) > self.max_exact:
                self._collapse()
        else:
            self._bucket_add(value, 1)

    def _bucket_index(self, value: float) -> int:
        return math.floor(
            math.log10(value) * self.buckets_per_decade + 1e-12
        )

    def _bucket_add(self, value: float, n: int) -> None:
        assert self._buckets is not None
        if value <= 0.0:
            self._nonpositive += n
            return
        index = self._bucket_index(value)
        self._buckets[index] = self._buckets.get(index, 0) + n

    def _collapse(self) -> None:
        """Exact -> bucketed, a pure function of the retained samples."""
        samples, self._samples = self._samples, None
        self._buckets = {}
        assert samples is not None
        for value in samples:
            self._bucket_add(value, 1)

    def _bucket_upper(self, index: int) -> float:
        return 10.0 ** ((index + 1) / self.buckets_per_decade)

    # -- statistics --------------------------------------------------------------
    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Nearest-rank quantile; None on an empty sketch.

        Exact mode returns a retained sample.  Bucketed mode returns the
        quantile bucket's upper edge, clamped to the observed min/max —
        within one bucket's relative error of the exact answer.
        """
        if not 0.0 < q <= 100.0:
            raise ObservabilityError(
                f"quantile q must be in (0, 100], got {q}"
            )
        if self.count == 0:
            return None
        if self._samples is not None:
            return nearest_rank(sorted(self._samples), q)
        assert self._buckets is not None
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = self._nonpositive
        if rank <= seen:
            # Every non-positive observation sits below the log buckets;
            # the observed minimum is the only value we still know.
            return self.min
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if rank <= seen:
                upper = self._bucket_upper(index)
                assert self.min is not None and self.max is not None
                return min(max(upper, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count by construction

    def percentiles(
        self, qs: Iterable[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> dict[str, float | None]:
        """``{"p50": ..., "p90": ...}`` for the requested quantiles."""
        out: dict[str, float | None] = {}
        for q in qs:
            label = f"p{q:g}".replace(".", "")
            out[label] = self.quantile(q)
        return out

    # -- merge -------------------------------------------------------------------
    def merge(self, other: "LogBucketSketch") -> "LogBucketSketch":
        """Fold ``other`` into this sketch (in place; returns self)."""
        if other.buckets_per_decade != self.buckets_per_decade:
            raise ObservabilityError(
                "cannot merge sketches with different bucket resolutions "
                f"({self.buckets_per_decade} vs {other.buckets_per_decade})"
            )
        if other.count == 0:
            return self
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        if (
            self._samples is not None
            and other._samples is not None
            and len(self._samples) + len(other._samples) <= self.max_exact
        ):
            self._samples.extend(other._samples)
            return self
        if self._samples is not None:
            self._collapse()
        assert self._buckets is not None
        if other._samples is not None:
            for value in other._samples:
                self._bucket_add(value, 1)
        else:
            assert other._buckets is not None
            self._nonpositive += other._nonpositive
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n
        return self

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-able full state (crosses process boundaries losslessly)."""
        data: dict[str, Any] = {
            "max_exact": self.max_exact,
            "buckets_per_decade": self.buckets_per_decade,
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        if self._samples is not None:
            data["samples"] = list(self._samples)
        else:
            assert self._buckets is not None
            data["buckets"] = {str(k): v for k, v in self._buckets.items()}
            data["nonpositive"] = self._nonpositive
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LogBucketSketch":
        sketch = cls(
            max_exact=int(data.get("max_exact", DEFAULT_MAX_EXACT)),
            buckets_per_decade=int(
                data.get("buckets_per_decade", DEFAULT_BUCKETS_PER_DECADE)
            ),
        )
        sketch.count = int(data.get("count", 0))
        sketch.sum = float(data.get("sum", 0.0))
        sketch.min = None if data.get("min") is None else float(data["min"])
        sketch.max = None if data.get("max") is None else float(data["max"])
        if "buckets" in data:
            sketch._samples = None
            sketch._buckets = {
                int(k): int(v) for k, v in data["buckets"].items()
            }
            sketch._nonpositive = int(data.get("nonpositive", 0))
        else:
            sketch._samples = [float(v) for v in data.get("samples", ())]
        return sketch

    # -- export ------------------------------------------------------------------
    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending with +inf.

        The Prometheus ``le`` bucket series: exact-mode samples are
        bucketized on the fly (the sketch itself stays exact), bucketed
        mode reads its counts directly.
        """
        if self._samples is not None:
            counts: dict[int, int] = {}
            nonpositive = 0
            for value in self._samples:
                if value <= 0.0:
                    nonpositive += 1
                else:
                    index = self._bucket_index(value)
                    counts[index] = counts.get(index, 0) + 1
        else:
            assert self._buckets is not None
            counts = self._buckets
            nonpositive = self._nonpositive
        out: list[tuple[float, int]] = []
        cumulative = nonpositive
        if nonpositive:
            out.append((0.0, nonpositive))
        for index in sorted(counts):
            cumulative += counts[index]
            out.append((self._bucket_upper(index), cumulative))
        out.append((math.inf, self.count))
        return out

    def snapshot(self) -> dict[str, Any]:
        """Summary statistics (the shape metric snapshots embed)."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            **self.percentiles(),
        }
