"""Tests for the Chrome-trace and Prometheus exporters."""

import io
import json

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.core.demand import DemandDrivenAnalyzer
from repro.obs import (
    BUCKET_BOUNDS,
    JsonlSink,
    Metrics,
    RingBufferSink,
    TraceRecord,
    Tracer,
    chrome_trace_events,
    prometheus_name,
    render_prometheus,
    write_chrome_trace,
    write_prometheus,
)

REQUIRED_KEYS = {"name", "ph", "ts", "pid", "tid"}


def traced_run():
    """A demand-driven analysis of the paper's carry-skip cascade,
    traced into a ring buffer."""
    tracer = Tracer()
    sink = RingBufferSink()
    tracer.add_sink(sink)
    DemandDrivenAnalyzer(
        cascade_adder(8, 2), options=AnalysisOptions(tracer=tracer)
    ).analyze()
    return tracer, sink


class TestChromeTrace:
    def test_events_carry_required_keys(self):
        _, sink = traced_run()
        events = chrome_trace_events(sink)
        assert events
        for event in events:
            assert REQUIRED_KEYS <= set(event), event
            assert event["ph"] in ("X", "i")
            if event["ph"] == "X":
                assert event["dur"] >= 0.0
            else:
                assert event["s"] == "t"

    def test_timestamps_non_negative_and_monotonic(self):
        _, sink = traced_run()
        ts = [e["ts"] for e in chrome_trace_events(sink)]
        assert all(t >= 0.0 for t in ts)
        assert ts == sorted(ts)

    def test_file_round_trips_json_loads(self, tmp_path):
        tracer, sink = traced_run()
        target = tmp_path / "trace.json"
        count = write_chrome_trace(target, sink, metrics=tracer.metrics)
        payload = json.loads(target.read_text())  # strict JSON
        assert len(payload["traceEvents"]) == count == len(sink)
        assert payload["displayTimeUnit"] == "ms"
        assert "counters" in payload["metrics"]

    def test_compiled_run_exports_kernel_spans(self):
        _, sink = traced_run()
        names = {e["name"] for e in chrome_trace_events(sink)}
        assert {
            "kernel-compile",
            "kernel-propagate",
            "refinement-step",
            "refinement-applied",
        } <= names

    def test_measured_event_becomes_complete_event(self):
        record = TraceRecord(
            kind="event", name="sat-call", t=2.0, seconds=0.5
        )
        (event,) = chrome_trace_events([record])
        assert event["ph"] == "X"
        assert event["ts"] == 1.5e6  # start = t - seconds, in µs
        assert event["dur"] == 0.5e6

    def test_nonfinite_args_stay_strict_json(self, tmp_path):
        record = TraceRecord(
            kind="event",
            name="refinement-applied",
            t=1.0,
            attrs={
                "weight_after": float("-inf"),
                "movement": float("nan"),
                "delay": 4.0,
            },
        )
        target = tmp_path / "trace.json"
        write_chrome_trace(target, [record])
        text = target.read_text()
        assert "Infinity" not in text and "NaN" not in text
        (event,) = json.loads(text)["traceEvents"]
        assert event["args"]["weight_after"] == "-inf"
        assert event["args"]["movement"] == "nan"
        assert event["args"]["delay"] == 4.0

    def test_export_from_jsonl_path(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit(TraceRecord(kind="event", name="a", t=0.0))
            sink.emit(TraceRecord(kind="event", name="b", t=1.0))
        events = chrome_trace_events(path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_write_to_stream(self):
        buf = io.StringIO()
        count = write_chrome_trace(
            buf, [TraceRecord(kind="event", name="e", t=0.0)]
        )
        assert count == 1
        assert json.loads(buf.getvalue())["traceEvents"][0]["name"] == "e"


class TestPrometheus:
    def test_name_sanitization(self):
        assert prometheus_name("kernel.compile_seconds") == (
            "kernel_compile_seconds"
        )
        assert prometheus_name("a b/c") == "a_b_c"
        assert prometheus_name("0bad") == "_0bad"
        assert prometheus_name("") == "_"

    def test_every_family_has_a_type_header(self):
        tracer, _ = traced_run()
        text = render_prometheus(tracer.metrics)
        types: dict[str, str] = {}
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split()
                types[family] = kind
            elif line:
                family = line.split()[0].partition("{")[0]
                base = family
                for suffix in ("_count", "_sum", "_bucket"):
                    if family.endswith(suffix):
                        base = family[: -len(suffix)]
                assert base in types or family in types, line

    def test_counter_gauge_histogram_types(self):
        m = Metrics()
        m.counter("demand.edges_refined").inc(3)
        m.gauge("kernel.plan.nodes").set(17)
        m.histogram("kernel.batch_seconds").observe(0.5)
        m.histogram("kernel.batch_seconds").observe(1.5)
        text = render_prometheus(m)
        assert "# TYPE demand_edges_refined counter" in text
        assert "demand_edges_refined 3" in text
        assert "# TYPE kernel_plan_nodes gauge" in text
        assert "kernel_plan_nodes 17" in text
        assert "# TYPE kernel_batch_seconds histogram" in text
        assert "kernel_batch_seconds_count 2" in text
        assert "kernel_batch_seconds_sum 2" in text
        assert "kernel_batch_seconds_min 0.5" in text
        assert "kernel_batch_seconds_max 1.5" in text

    def test_histogram_buckets_cumulative_and_le_labelled(self):
        m = Metrics()
        h = m.histogram("kernel.batch_seconds")
        h.observe(0.5)
        h.observe(1.5)
        text = render_prometheus(m)
        bucket_lines = [
            ln
            for ln in text.splitlines()
            if ln.startswith("kernel_batch_seconds_bucket{")
        ]
        assert len(bucket_lines) == len(BUCKET_BOUNDS) + 1
        assert bucket_lines[-1] == (
            'kernel_batch_seconds_bucket{le="+Inf"} 2'
        )
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in bucket_lines]
        assert counts == sorted(counts)  # cumulative, never decreasing
        # 0.5 lands in the le=1 bucket, 1.5 only past sqrt(10)~3.16.
        by_le = {
            ln.split('le="')[1].split('"')[0]: int(ln.rsplit(" ", 1)[1])
            for ln in bucket_lines
        }
        assert by_le["1"] == 1
        assert by_le["+Inf"] == 2

    def test_empty_histogram_has_no_min_max(self):
        m = Metrics()
        m.histogram("quiet")
        text = render_prometheus(m)
        assert "quiet_count 0" in text
        assert "quiet_min" not in text and "quiet_max" not in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(Metrics()) == ""

    def test_write_returns_sample_count(self, tmp_path):
        m = Metrics()
        m.counter("c").inc()
        m.gauge("g").set(1)
        m.histogram("h").observe(2.0)
        target = tmp_path / "metrics.prom"
        # c, g, the bucket samples (bounds + +Inf), h_sum, h_count,
        # h_min, h_max
        expected = 2 + (len(BUCKET_BOUNDS) + 1) + 4
        assert write_prometheus(target, m) == expected
        lines = target.read_text().splitlines()
        samples = [ln for ln in lines if ln and not ln.startswith("#")]
        assert len(samples) == expected

    def test_render_deterministic(self):
        a, b = Metrics(), Metrics()
        for m, order in ((a, ("x", "y")), (b, ("y", "x"))):
            for name in order:
                m.counter(name).inc()
        assert render_prometheus(a) == render_prometheus(b)
