"""Instrumentation of the simulator itself: spans match the model.

The acceptance-critical properties live here: a traced AllReduce yields
phase spans whose simulated windows equal the Algorithm 1 timeline
offsets, the disabled path is bit-identical to an uninstrumented run,
and backend errors carry backend/request context.
"""

import pytest

from repro.collectives.backend import registry
from repro.collectives.patterns import Collective, CollectiveRequest
from repro.config.presets import pimnet_sim_system
from repro.config.trace import TraceConfig
from repro.core import Shape
from repro.core.timeline import allreduce_timeline
from repro.errors import BackendError, ConfigurationError
from repro.noc import Message, NocNetwork, NocSimulator
from repro.observability import (
    Instrumentation,
    MetricsRegistry,
    Tracer,
    build_instrumentation,
    use_metrics,
    use_tracer,
)

PAYLOAD = 1 << 20  # 1 MiB per DPU; divisible by 8 x 256


def find_span(root, name):
    """The first span named ``name`` in a tracer or span, depth first."""
    return next((s for s in root.walk() if s.name == name), None)


@pytest.fixture(scope="module")
def machine():
    return pimnet_sim_system()


class TestTimelineSpans:
    """Traced AllReduce spans == Fig 5(d) phase offsets."""

    def test_phase_spans_match_timeline_entries(self, machine):
        tracer = Tracer()
        with use_tracer(tracer):
            timeline = allreduce_timeline(PAYLOAD, machine)
        root = find_span(tracer, "timeline/allreduce")
        assert root is not None
        assert root.sim_start_s == 0.0
        assert root.sim_end_s == pytest.approx(timeline.total_s)
        for entry in timeline.entries:
            span = find_span(root, f"{entry.domain}-{entry.phase}")
            assert span is not None, (entry.domain, entry.phase)
            assert span.sim_start_s == pytest.approx(entry.start_s)
            assert span.sim_duration_s == pytest.approx(entry.duration_s)

    def test_all_six_phases_plus_sync_present(self, machine):
        tracer = Tracer()
        with use_tracer(tracer):
            allreduce_timeline(PAYLOAD, machine)
        root = find_span(tracer, "timeline/allreduce")
        names = [c.name for c in root.children]
        assert names == ["bank-RS", "chip-RS", "rank-RS",
                         "rank-AG", "chip-AG", "bank-AG", "sync"]

    def test_sync_span_starts_at_transport_end(self, machine):
        tracer = Tracer()
        with use_tracer(tracer):
            timeline = allreduce_timeline(PAYLOAD, machine)
        sync = find_span(tracer, "sync")
        transport = max(e.end_s for e in timeline.entries)
        assert sync.sim_start_s == pytest.approx(transport)
        assert sync.sim_end_s == pytest.approx(transport + timeline.sync_s)

    def test_timeline_result_unchanged_by_tracing(self, machine):
        bare = allreduce_timeline(PAYLOAD, machine)
        with use_tracer(Tracer()):
            traced = allreduce_timeline(PAYLOAD, machine)
        assert traced == bare


class TestBackendSpans:
    def test_timing_span_carries_backend_and_sim_window(self, machine):
        tracer = Tracer()
        request = CollectiveRequest(Collective.ALL_REDUCE, PAYLOAD)
        with use_tracer(tracer):
            breakdown = registry.create("P", machine).timing(request)
        span = find_span(tracer, "timing/P")
        assert span is not None
        assert span.attributes["backend"] == "P"
        assert span.attributes["request"] == request.summary()
        assert span.sim_duration_s == pytest.approx(breakdown.total_s)

    def test_metrics_record_payload_and_backend_time(self, machine):
        metrics = MetricsRegistry()
        request = CollectiveRequest(Collective.ALL_REDUCE, PAYLOAD)
        with use_metrics(metrics):
            breakdown = registry.create("P", machine).timing(request)
        assert metrics.counters["collective.requests"].value == 1
        assert metrics.counters["collective.payload_bytes"].value == PAYLOAD
        hist = metrics.histograms["backend.P.timing_s"]
        assert hist.samples == [pytest.approx(breakdown.total_s)]


class TestDisabledPathBitIdentical:
    """With instrumentation off, timing results must not change at all."""

    @pytest.mark.parametrize("key", ["B", "S", "D", "P"])
    def test_breakdowns_equal_with_and_without_tracer(self, machine, key):
        request = CollectiveRequest(Collective.ALL_REDUCE, PAYLOAD)
        backend = registry.create(key, machine)
        bare = backend.timing(request)
        with use_tracer(Tracer()), use_metrics(MetricsRegistry()):
            instrumented = backend.timing(request)
        # CommBreakdown is frozen with float fields: == is bit-exact.
        assert instrumented == bare
        assert backend.timing(request) == bare  # and off again afterwards


class TestErrorContext:
    def test_backend_error_names_backend_and_request(self, machine):
        request = CollectiveRequest(Collective.ALL_REDUCE, 2048)
        with pytest.raises(BackendError) as excinfo:
            registry.create("N", machine).timing(request)
        message = str(excinfo.value)
        assert "backend=N" in message
        assert "NDPBridge" in message
        assert "all_reduce" in message
        assert "2048B/DPU" in message

    def test_context_attached_once(self, machine):
        request = CollectiveRequest(Collective.ALL_REDUCE, 2048)
        with pytest.raises(BackendError) as excinfo:
            registry.create("N", machine).timing(request)
        assert str(excinfo.value).count("backend=N") == 1


class TestNocInstrumentation:
    def test_run_span_and_flit_counters(self):
        net = NocNetwork(Shape(4, 2, 1))
        msg = Message(msg_id=0, src=0, dst=net.shape.dpu(0, 0, 1),
                      num_flits=4)
        tracer, metrics = Tracer(), MetricsRegistry()
        with use_tracer(tracer), use_metrics(metrics):
            stats = NocSimulator(net, [msg]).run()
        span = find_span(tracer, "noc/run")
        assert span is not None
        assert span.attributes["num_messages"] == 1
        assert span.attributes["cycles"] == stats.cycles
        assert metrics.counters["noc.flits_delivered"].value == 4
        assert metrics.counters["noc.cycles"].value == stats.cycles


class TestTraceConfig:
    def test_defaults_are_all_off(self):
        config = TraceConfig()
        assert not config.active

    def test_paths_require_their_flag(self):
        with pytest.raises(ConfigurationError):
            TraceConfig(trace_path="t.json")
        with pytest.raises(ConfigurationError):
            TraceConfig(metrics_path="m.csv")

    def test_bad_clock_rejected(self):
        with pytest.raises(ConfigurationError, match="clock"):
            TraceConfig(enabled=True, clock="logical")


class TestInstrumentation:
    def test_build_respects_config(self):
        off = build_instrumentation(TraceConfig())
        assert off.tracer is None and off.metrics is None
        assert off.write() == []
        assert off.tree() == ""

        on = build_instrumentation(TraceConfig(enabled=True, metrics=True))
        assert on.tracer is not None and on.metrics is not None

    def test_activate_and_write_end_to_end(self, tmp_path, machine):
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.csv"
        inst = Instrumentation.enabled(
            trace_path=str(trace_path), metrics_path=str(metrics_path)
        )
        request = CollectiveRequest(Collective.ALL_REDUCE, PAYLOAD)
        with inst.activate():
            registry.create("P", machine).timing(request)
        written = inst.write()
        assert written == [str(trace_path), str(metrics_path)]
        assert trace_path.exists() and metrics_path.exists()
        assert "timing/P" in inst.tree()
