"""Tests for the observability layer: tracer, metrics, sinks, wiring."""

import io
import json

import pytest

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.core.demand import DemandDrivenAnalyzer
from repro.core.hier import HierarchicalAnalyzer
from repro.library.store import ModelLibrary
from repro.obs import (
    NULL_TRACER,
    PHASES,
    JsonlSink,
    Metrics,
    RingBufferSink,
    SummarySink,
    TraceRecord,
    Tracer,
    ensure_tracer,
    read_jsonl,
)


class FakeClock:
    """Deterministic clock: each call advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        t = self.now
        self.now += self.step
        return t


class TestMetrics:
    def test_counter_create_on_use(self):
        m = Metrics()
        m.counter("a").inc()
        m.counter("a").inc(4)
        assert m.counter("a").value == 5

    def test_gauge_and_histogram(self):
        m = Metrics()
        m.gauge("depth").set(7)
        assert m.gauge("depth").value == 7
        h = m.histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.minimum == 1.0 and h.maximum == 3.0
        assert h.mean == 2.0

    def test_as_dict_round_trips_json(self):
        m = Metrics()
        m.counter("c").inc()
        m.gauge("g").set(2.5)
        m.histogram("h").observe(1.0)
        snapshot = json.loads(json.dumps(m.as_dict()))
        assert snapshot["counters"]["c"] == 1
        assert snapshot["gauges"]["g"] == 2.5
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["mean"] == 1.0

    def test_empty_histogram_mean_is_zero(self):
        m = Metrics()
        h = m.histogram("quiet")
        assert h.count == 0
        assert h.mean == 0.0  # no ZeroDivisionError on zero observations
        assert m.as_dict()["histograms"]["quiet"]["mean"] == 0.0


class TestTracer:
    def test_span_records_duration_and_phase(self):
        tracer = Tracer(clock=FakeClock())
        sink = RingBufferSink()
        tracer.add_sink(sink)
        with tracer.span("work", phase="characterization", module="m"):
            pass
        (record,) = sink.records()
        assert record.kind == "span" and record.name == "work"
        assert record.seconds > 0
        assert record.phase == "characterization"
        assert record.attrs["module"] == "m"
        assert tracer.phase_seconds["characterization"] == record.seconds

    def test_span_nesting_depth(self):
        tracer = Tracer(clock=FakeClock())
        sink = RingBufferSink()
        tracer.add_sink(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.records()  # inner exits (records) first
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0

    def test_event_and_counters(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("sat-call", seconds=0.25, variables=10)
        tracer.count("xbd0.sat_calls")
        tracer.gauge("nodes", 42)
        tracer.observe("lat", 0.5)
        assert tracer.name_counts["sat-call"] == 1
        assert tracer.metrics.counter("xbd0.sat_calls").value == 1
        assert tracer.metrics.gauge("nodes").value == 42
        # phase=None events never contribute to phase totals
        assert tracer.phase_seconds == {}

    def test_phase_totals_always_canonical(self):
        tracer = Tracer(clock=FakeClock())
        totals = tracer.phase_totals()
        assert set(PHASES) <= set(totals)
        assert all(v == 0.0 for v in totals.values())

    def test_summary_lists_phases_and_counts(self):
        tracer = Tracer(clock=FakeClock())
        tracer.event("tuple-prune", phase="characterization", seconds=1.0)
        tracer.count("required.checks", 3)
        text = tracer.summary()
        for phase in PHASES:
            assert phase in text
        assert "tuple-prune" in text
        assert "required.checks" in text

    def test_close_closes_sinks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(sinks=[JsonlSink(path)])
        tracer.event("e")
        tracer.close()
        assert len(read_jsonl(path)) == 1


class TestNullTracer:
    def test_disabled_and_noop(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x", phase="cache"):
            pass
        NULL_TRACER.event("x", seconds=1.0)
        NULL_TRACER.count("c")
        NULL_TRACER.gauge("g", 1)
        NULL_TRACER.observe("h", 1)
        assert NULL_TRACER.name_counts == {}
        assert NULL_TRACER.phase_seconds == {}

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        real = Tracer(clock=FakeClock())
        assert ensure_tracer(real) is real

    def test_add_sink_rejected(self):
        with pytest.raises(ValueError):
            NULL_TRACER.add_sink(RingBufferSink())


class TestSinks:
    def test_ring_buffer_eviction(self):
        sink = RingBufferSink(capacity=2)
        for i in range(5):
            sink.emit(TraceRecord(kind="event", name=f"e{i}", t=float(i)))
        assert sink.emitted == 5
        assert len(sink) == 2
        assert [r.name for r in sink.records()] == ["e3", "e4"]
        assert sink.names() == {"e3", "e4"}
        assert sink.by_name("e4")[0].t == 4.0

    def test_jsonl_round_trip_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(
                TraceRecord(
                    kind="event",
                    name="cache-hit",
                    t=1.5,
                    seconds=0.25,
                    phase="cache",
                    depth=2,
                    attrs={"layer": "memory"},
                )
            )
        (rec,) = read_jsonl(path)
        assert rec.name == "cache-hit"
        assert rec.t == 1.5 and rec.seconds == 0.25
        assert rec.phase == "cache" and rec.depth == 2
        assert rec.attrs == {"layer": "memory"}

    def test_jsonl_borrowed_stream(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(TraceRecord(kind="event", name="e", t=0.0))
        sink.close()  # must not close a borrowed stream
        buf.seek(0)
        assert len(read_jsonl(buf)) == 1

    def test_jsonl_truncated_trailing_record_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            for i in range(3):
                sink.emit(
                    TraceRecord(kind="event", name=f"e{i}", t=float(i))
                )
        lines = path.read_text().splitlines()
        # simulate a crash mid-write: last record cut in half
        path.write_text(
            "\n".join(lines[:2] + [lines[2][: len(lines[2]) // 2]])
        )
        records = read_jsonl(path)
        assert [r.name for r in records] == ["e0", "e1"]
        assert records.skipped == 1
        with pytest.raises(json.JSONDecodeError):
            read_jsonl(path, strict=True)

    def test_jsonl_missing_field_counted(self):
        buf = io.StringIO('{"kind": "event"}\n')
        records = read_jsonl(buf)
        assert list(records) == []
        assert records.skipped == 1

    def test_summary_sink_render(self):
        sink = SummarySink()
        assert "(no records)" in sink.render()
        sink.emit(TraceRecord(kind="event", name="a", t=0.0, seconds=1.0))
        sink.emit(TraceRecord(kind="event", name="a", t=1.0, seconds=0.5))
        text = sink.render()
        assert "a" in text and "2" in text and "1.500" in text

    def test_summary_sink_render_deterministic(self):
        records = [
            TraceRecord(kind="event", name=n, t=0.0, seconds=0.5)
            for n in ("beta", "alpha", "gamma")
        ]
        forward, backward = SummarySink(), SummarySink()
        for r in records:
            forward.emit(r)
        for r in reversed(records):
            backward.emit(r)
        # sorted by name: emission order must not change the table
        assert forward.render() == backward.render()
        assert forward.render() == forward.render()


class TestAnalyzerWiring:
    """Instrumentation must not perturb results and must emit the
    advertised record types."""

    def test_demand_driven_traced_result_identical(self):
        design = cascade_adder(8, 2)
        plain = DemandDrivenAnalyzer(design).analyze()
        tracer = Tracer()
        sink = RingBufferSink()
        tracer.add_sink(sink)
        traced = DemandDrivenAnalyzer(
            design, options=AnalysisOptions(tracer=tracer)
        ).analyze()
        assert traced.output_times == plain.output_times
        assert traced.delay == plain.delay
        assert traced.refined_weights == plain.refined_weights
        names = sink.names()
        assert "sta-pass" in names
        assert "refinement-step" in names
        assert "second-longest-path" in names
        counters = tracer.metrics.as_dict()["counters"]
        assert counters["demand.sta_passes"] == traced.sta_passes
        assert counters["demand.refinement_checks"] == (
            traced.refinement_checks
        )

    def test_hier_with_library_emits_cache_events(self, tmp_path):
        design = cascade_adder(4, 2)
        tracer = Tracer()
        sink = RingBufferSink()
        tracer.add_sink(sink)
        analyzer = HierarchicalAnalyzer(
            design,
            library=ModelLibrary(tmp_path / "cache"),
            options=AnalysisOptions(tracer=tracer),
        )
        analyzer.analyze()
        names = sink.names()
        assert "cache-miss" in names
        assert "cache-store" in names
        assert "characterize-module" in names
        assert "propagate" in names
        # warm second analyzer: hits, no new characterizations
        sink2 = RingBufferSink()
        tracer2 = Tracer(sinks=[sink2])
        HierarchicalAnalyzer(
            design,
            library=ModelLibrary(tmp_path / "cache"),
            options=AnalysisOptions(tracer=tracer2),
        ).analyze()
        assert "cache-hit" in sink2.names()
        assert "characterize-module" not in sink2.names()

    def test_phase_totals_sum_within_elapsed(self):
        design = cascade_adder(8, 2)
        tracer = Tracer()
        DemandDrivenAnalyzer(
            design, options=AnalysisOptions(tracer=tracer)
        ).analyze()
        totals = tracer.phase_totals()
        assert all(v >= 0.0 for v in totals.values())
        assert sum(totals.values()) <= tracer.elapsed_seconds()

    def test_library_adopts_analyzer_tracer(self, tmp_path):
        design = cascade_adder(4, 2)
        library = ModelLibrary(tmp_path / "cache")  # untraced library
        tracer = Tracer()
        sink = RingBufferSink()
        tracer.add_sink(sink)
        HierarchicalAnalyzer(
            design, library=library, options=AnalysisOptions(tracer=tracer)
        ).analyze()
        assert "cache-miss" in sink.names()

    def test_stats_metrics_backed(self, tmp_path):
        library = ModelLibrary(tmp_path / "cache")
        stats = library.stats
        stats.hits += 2
        stats.misses += 1
        assert stats.hits == 2 and stats.misses == 1
        assert stats.metrics.counter("library.hits").value == 2
        stats.record_characterization(0.5)
        assert stats.characterizations == 1
        assert stats.characterization_seconds == 0.5
        snapshot = stats.as_dict()
        assert snapshot["hits"] == 2
        assert snapshot["characterization_seconds"] == 0.5
        assert "model library:" in stats.render()
