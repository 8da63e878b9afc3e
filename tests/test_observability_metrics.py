"""Metrics registry: instruments, memoization, and the disabled path."""

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_metrics,
    metric_counter,
    metric_gauge,
    metric_histogram,
    set_active_metrics,
    use_metrics,
)
from repro.observability.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)


class TestCounter:
    def test_accumulates(self):
        c = Counter("bytes")
        c.inc(100)
        c.inc(28)
        assert c.value == 128
        assert c.updates == 2

    def test_default_increment_is_one(self):
        c = Counter("events")
        c.inc()
        assert c.value == 1.0

    def test_rejects_negative(self):
        c = Counter("bytes")
        with pytest.raises(ObservabilityError, match="cannot decrease"):
            c.inc(-1)

    def test_snapshot(self):
        c = Counter("bytes")
        c.inc(7)
        assert c.snapshot() == {"value": 7.0, "updates": 1}


class TestGauge:
    def test_set_keeps_last_value(self):
        g = Gauge("occupancy")
        g.set(3)
        g.set(1)
        assert g.value == 1
        assert g.updates == 2

    def test_max_keeps_running_maximum(self):
        g = Gauge("peak")
        g.max(2)
        g.max(9)
        g.max(4)
        assert g.value == 9


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram("phase_s")
        for v in (1.0, 3.0, 2.0, 4.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(10.0)
        assert snap["min"] == 1.0 and snap["max"] == 4.0
        assert snap["mean"] == pytest.approx(2.5)

    def test_percentile_nearest_rank(self):
        h = Histogram("x")
        for v in range(1, 101):
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert h.percentile(50) == pytest.approx(50.0, abs=1.0)

    def test_percentile_bounds_checked(self):
        h = Histogram("x")
        h.observe(1.0)
        with pytest.raises(ObservabilityError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = Histogram("x")
        assert h.snapshot() == {"count": 0}
        assert h.percentile(50) is None
        assert h.mean is None


class TestRegistry:
    def test_instruments_memoized_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError, match="different kind"):
            reg.gauge("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError, match="non-empty"):
            MetricsRegistry().counter("")

    def test_snapshot_is_sorted_and_kinded(self):
        reg = MetricsRegistry()
        reg.counter("b.total").inc(2)
        reg.gauge("a.peak").set(5)
        reg.histogram("c.dist").observe(1.0)
        snap = reg.snapshot()
        assert list(snap) == ["b.total", "a.peak", "c.dist"]
        assert snap["b.total"] == {"kind": "counter", "value": 2.0,
                                   "updates": 1}
        assert snap["a.peak"]["kind"] == "gauge"
        assert snap["c.dist"]["kind"] == "histogram"


class TestActiveRegistry:
    def test_helpers_return_null_singletons_when_off(self):
        assert active_metrics() is None
        assert metric_counter("x") is NULL_COUNTER
        assert metric_gauge("x") is NULL_GAUGE
        assert metric_histogram("x") is NULL_HISTOGRAM

    def test_null_instruments_absorb_updates(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(1)
        NULL_GAUGE.max(2)
        NULL_HISTOGRAM.observe(3.0)
        # No state to assert — the point is nothing raises and nothing
        # is recorded anywhere.

    def test_use_metrics_scopes_the_registry(self):
        reg = MetricsRegistry()
        with use_metrics(reg):
            assert active_metrics() is reg
            metric_counter("scoped").inc()
        assert active_metrics() is None
        assert reg.counters["scoped"].value == 1

    def test_set_active_metrics_returns_previous(self):
        reg = MetricsRegistry()
        assert set_active_metrics(reg) is None
        try:
            assert set_active_metrics(None) is reg
        finally:
            set_active_metrics(None)
