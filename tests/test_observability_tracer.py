"""Span tracer: nesting, clocks, and the disabled zero-overhead path."""

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    NULL_SPAN,
    NullSpan,
    Span,
    Tracer,
    active_tracer,
    current_span,
    set_active_tracer,
    trace_span,
    traced,
    use_tracer,
)


class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        assert tracer.roots == [outer]
        assert [c.name for c in outer.children] == ["middle", "sibling"]
        assert [c.name for c in middle.children] == ["inner"]

    def test_sequential_roots_form_a_forest(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_walk_is_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        assert [s.name for s in tracer.walk()] == ["a", "b", "c", "d"]

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                assert tracer.current is inner
        assert tracer.current is None

    def test_out_of_order_exit_rejected(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ObservabilityError, match="out of order"):
            outer.__exit__(None, None, None)


class TestSpanClocks:
    def test_wall_clock_recorded_on_exit(self):
        tracer = Tracer()
        with tracer.span("timed") as span:
            assert span.wall_start_s is not None
            assert span.wall_end_s is None
        assert span.wall_duration_s is not None
        assert span.wall_duration_s >= 0

    def test_sim_window_explicit(self):
        tracer = Tracer()
        with tracer.span("phase", sim_start_s=1.0, sim_end_s=3.5) as span:
            pass
        assert span.has_sim_window
        assert span.sim_duration_s == pytest.approx(2.5)

    def test_set_sim_window_after_the_fact(self):
        tracer = Tracer()
        with tracer.span("phase") as span:
            assert not span.has_sim_window
            span.set_sim_window(0.0, 0.25)
        assert span.sim_duration_s == pytest.approx(0.25)

    def test_inverted_sim_window_rejected(self):
        tracer = Tracer()
        with pytest.raises(ObservabilityError, match="before it starts"):
            tracer.span("bad").set_sim_window(2.0, 1.0)

    def test_record_adds_closed_sim_span(self):
        tracer = Tracer()
        span = tracer.record("phase", 0.5, 1.5, category="phase", tier="bank")
        assert tracer.roots == [span]
        assert span.sim_duration_s == pytest.approx(1.0)
        assert span.wall_duration_s is not None
        assert span.attributes["tier"] == "bank"


class TestSpanAttributes:
    def test_attribute_setters_chain(self):
        tracer = Tracer()
        with tracer.span("s", payload=8) as span:
            span.set_attributes(tier="bank").set_attributes(steps=7, x=1)
        assert span.attributes == {"payload": 8, "tier": "bank",
                                   "steps": 7, "x": 1}

    def test_exception_marks_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing") as span:
                raise ValueError("boom")
        assert span.attributes["error"] == "ValueError"
        assert tracer.current is None  # stack unwound

    def test_empty_name_rejected(self):
        with pytest.raises(ObservabilityError, match="non-empty"):
            Span("")


class TestDisabledPath:
    """With no (or a disabled) tracer, every helper returns shared no-ops."""

    def test_trace_span_returns_the_null_singleton(self):
        assert active_tracer() is None
        assert trace_span("anything", key="value") is NULL_SPAN
        assert current_span() is NULL_SPAN

    def test_disabled_tracer_returns_the_null_singleton(self):
        tracer = Tracer(enabled=False)
        with use_tracer(tracer):
            assert trace_span("anything") is NULL_SPAN
        assert tracer.roots == []

    def test_null_span_absorbs_everything(self):
        span = NULL_SPAN
        with span as entered:
            assert entered is NULL_SPAN
        assert span.set_attributes(a=2) is NULL_SPAN
        assert span.set_sim_window(0.0, 1.0) is NULL_SPAN
        assert isinstance(span, NullSpan)

    def test_disabled_records_nothing(self):
        tracer = Tracer()
        with use_tracer(None):
            with trace_span("invisible"):
                pass
        assert tracer.roots == []


class TestActiveTracer:
    def test_use_tracer_restores_previous(self):
        first, second = Tracer(), Tracer()
        set_active_tracer(first)
        try:
            with use_tracer(second):
                assert active_tracer() is second
            assert active_tracer() is first
        finally:
            set_active_tracer(None)

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError
        assert active_tracer() is None

    def test_trace_span_reports_to_active_tracer(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("via-helper", category="test") as span:
                assert current_span() is span
        assert [r.name for r in tracer.roots] == ["via-helper"]

    def test_clear_resets_roots(self):
        tracer = Tracer()
        with tracer.span("old"):
            pass
        tracer.clear()
        assert tracer.roots == []

    def test_clear_with_open_span_rejected(self):
        tracer = Tracer()
        span = tracer.span("open")
        span.__enter__()
        with pytest.raises(ObservabilityError, match="open spans"):
            tracer.clear()
        span.__exit__(None, None, None)


class TestTracedDecorator:
    def test_decorator_resolves_tracer_at_call_time(self):
        @traced("work/unit", category="test")
        def unit(x):
            return x * 2

        assert unit(3) == 6  # no tracer: plain call

        tracer = Tracer()
        with use_tracer(tracer):
            assert unit(4) == 8
        assert [r.name for r in tracer.roots] == ["work/unit"]

    def test_decorator_defaults_to_qualname(self):
        @traced()
        def helper():
            return 1

        tracer = Tracer()
        with use_tracer(tracer):
            helper()
        assert "helper" in tracer.roots[0].name
