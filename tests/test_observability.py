"""Production observability: trace context, thread-safe metrics, the
flight recorder, SLO burn rates, and the sampling profiler —
unit-level and end-to-end through the server."""

import io
import json
import pickle
import threading
import time

import pytest

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.obs import (
    BUCKET_BOUNDS,
    FlightRecord,
    FlightRecorder,
    Metrics,
    NULL_TRACER,
    RingBufferSink,
    SamplingProfiler,
    SloObjective,
    SloTracker,
    Tracer,
    parse_slo_spec,
    read_jsonl,
    render_prometheus,
)
from repro.obs.sinks import JsonlSink
from repro.resilience import FaultPlan
from repro.server import TimingServerApp


def call(app, method, path, payload=None):
    """One app round trip, JSON-decoded when the response is JSON."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, ctype, out = app.handle(method, path, body)
    doc = json.loads(out) if ctype.startswith("application/json") else out
    return status, doc


def make_app(**kw):
    kw.setdefault("max_batch", 8)
    app = TimingServerApp(**kw)
    app.registry.register_design(cascade_adder(4, 2))
    return app


def traced():
    tracer = Tracer()
    sink = RingBufferSink()
    tracer.add_sink(sink)
    return tracer, sink


# ------------------------------------------------------------- trace context
class TestTraceContext:
    def test_span_ids_nest_via_parent_ids(self):
        tracer, sink = traced()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = sink.records()  # inner exits (records) first
        assert inner.name == "inner" and outer.name == "outer"
        assert inner.span_id != outer.span_id != 0
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0

    def test_context_binds_trace_id_to_records(self):
        tracer, sink = traced()
        with tracer.context("req-00000001"):
            with tracer.span("work"):
                tracer.event("step")
        tracer.event("after")
        work = sink.by_name("work")[0]
        step = sink.by_name("step")[0]
        after = sink.by_name("after")[0]
        assert work.trace_id == step.trace_id == "req-00000001"
        assert after.trace_id == ""
        assert tracer.current_trace_id() == ""

    def test_contexts_nest_and_restore(self):
        tracer, sink = traced()
        with tracer.context("outer-id"):
            assert tracer.current_trace_id() == "outer-id"
            with tracer.context("inner-id"):
                tracer.event("deep")
            tracer.event("shallow")
        assert sink.by_name("deep")[0].trace_id == "inner-id"
        assert sink.by_name("shallow")[0].trace_id == "outer-id"

    def test_event_parented_to_open_span(self):
        tracer, sink = traced()
        with tracer.span("host") as span:
            tracer.event("child")
        child = sink.by_name("child")[0]
        assert child.parent_id == sink.by_name("host")[0].span_id
        assert child.span_id == 0  # events are points, not spans

    def test_span_stacks_are_thread_local(self):
        tracer, sink = traced()
        barrier = threading.Barrier(2)
        thread_spans: dict[str, set[int]] = {}

        def worker(tag):
            with tracer.context(tag):
                with tracer.span(f"{tag}-outer"):
                    barrier.wait(5)  # both threads hold an open span
                    with tracer.span(f"{tag}-inner"):
                        pass
            thread_spans[tag] = {
                r.span_id
                for r in sink.records()
                if r.name.startswith(tag)
            }

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        for tag in ("alpha", "beta"):
            inner = sink.by_name(f"{tag}-inner")[0]
            outer = sink.by_name(f"{tag}-outer")[0]
            # nesting resolves within the thread, never across it
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id == tag

    def test_concurrent_spans_never_lose_records(self):
        tracer, sink = traced()
        n, per = 8, 50

        def worker(k):
            for i in range(per):
                with tracer.span("hammer", k=k, i=i):
                    pass

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        records = sink.by_name("hammer")
        assert len(records) == n * per
        assert len({r.span_id for r in records}) == n * per
        assert tracer.name_counts["hammer"] == n * per

    def test_null_tracer_context_is_noop(self):
        with NULL_TRACER.context("req-1"):
            with NULL_TRACER.span("x"):
                pass
        assert NULL_TRACER.current_trace_id() == ""

    def test_jsonl_roundtrip_preserves_context(self):
        tracer = Tracer()
        buffer = io.StringIO()
        tracer.add_sink(JsonlSink(buffer))
        with tracer.context("req-00000042"):
            with tracer.span("work"):
                pass
        records = read_jsonl(io.StringIO(buffer.getvalue()))
        (work,) = records
        assert work.trace_id == "req-00000042"
        assert work.span_id > 0

    def test_read_jsonl_counts_malformed_into_metrics(self):
        text = (
            '{"kind": "event", "name": "ok", "t": 0.0, "seconds": 0.0, '
            '"phase": null, "depth": 0}\n'
            "{broken json\n"
            '{"kind": "event"}\n'  # missing required fields
        )
        metrics = Metrics()
        records = read_jsonl(io.StringIO(text), metrics=metrics)
        assert len(records) == 1 and records.skipped == 2
        assert metrics.counter("obs.jsonl_malformed").value == 2
        # clean input leaves the counter untouched
        clean = Metrics()
        read_jsonl(io.StringIO(text.splitlines()[0] + "\n"), metrics=clean)
        assert "obs.jsonl_malformed" not in clean.counters


# ------------------------------------------------------ thread-safe metrics
class TestMetricsThreadSafety:
    def test_concurrent_updates_are_exact(self):
        metrics = Metrics()
        n, per = 8, 2000

        def worker():
            counter = metrics.counter("hits")
            histogram = metrics.histogram("lat")
            for i in range(per):
                counter.inc()
                histogram.observe(i * 1e-4)
                metrics.gauge("level").set(i)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert metrics.counter("hits").value == n * per
        h = metrics.histogram("lat")
        assert h.count == n * per
        assert h.cumulative_buckets()[-1] == (float("inf"), n * per)
        assert sum(h.bucket_counts) == n * per

    def test_concurrent_first_use_yields_one_instrument(self):
        metrics = Metrics()
        got = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait(5)
            got.append(metrics.counter("shared"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len({id(c) for c in got}) == 1

    def test_render_while_hammering(self):
        metrics = Metrics()
        stop = threading.Event()

        def worker(k):
            while not stop.is_set():
                metrics.counter(f"c{k}").inc()
                metrics.histogram("h").observe(0.01)

        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                text = render_prometheus(metrics)
                assert text  # never raises mid-update
                metrics.as_dict()
        finally:
            stop.set()
            for t in threads:
                t.join(10)

    def test_instruments_survive_pickling(self):
        metrics = Metrics()
        metrics.counter("c").inc(3)
        metrics.histogram("h").observe(1.5)
        clone = pickle.loads(pickle.dumps(metrics))
        assert clone.counter("c").value == 3
        clone.counter("c").inc()  # the recreated lock works
        assert clone.counter("c").value == 4
        assert clone.histogram("h").count == 1

    def test_tracer_shared_across_threads_keeps_totals(self):
        tracer = Tracer()
        n, per = 6, 200

        def worker():
            for _ in range(per):
                tracer.event("tick", phase="refinement", seconds=0.001)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert tracer.phase_events["refinement"] == n * per
        assert tracer.phase_totals()["refinement"] == pytest.approx(
            n * per * 0.001
        )


# ------------------------------------------------------------ flight recorder
def record(i=1, **kw):
    kw.setdefault("trace_id", f"req-{i:08d}")
    kw.setdefault("method", "POST")
    kw.setdefault("path", "/analyze")
    kw.setdefault("status", 200)
    kw.setdefault("finished_at", 1000.0 + i)
    kw.setdefault("latency_seconds", 0.001)
    return FlightRecord(**kw)


class TestFlightRecorder:
    def test_recent_newest_first_and_bounded(self):
        flight = FlightRecorder(capacity=3)
        for i in range(5):
            flight.record(record(i))
        recent = flight.recent()
        assert [r.trace_id for r in recent] == [
            "req-00000004", "req-00000003", "req-00000002",
        ]
        assert flight.recorded == 5
        assert flight.snapshot()["retained"] == 3

    def test_slow_ring_threshold(self):
        flight = FlightRecorder(capacity=8)  # slow at SLOW_SECONDS = 0.1
        flight.record(record(1, latency_seconds=0.01))
        flight.record(record(2, latency_seconds=0.20))
        assert [r.trace_id for r in flight.slow()] == ["req-00000002"]
        assert flight.slow_count == 1

    def test_error_ring(self):
        flight = FlightRecorder(capacity=8)
        flight.record(record(1, status=200))
        flight.record(record(2, status=404, error="unknown-design"))
        flight.record(record(3, status=503, error="overloaded"))
        errors = flight.errors()
        assert [r.status for r in errors] == [503, 404]
        assert errors[1].error == "unknown-design"

    def test_find_searches_every_ring(self):
        flight = FlightRecorder(capacity=2)
        flight.record(record(1, latency_seconds=0.2))  # recent + slow
        flight.record(record(2))
        flight.record(record(3))  # evicts 1 from recent
        assert flight.find("req-00000001").latency_seconds == 0.2
        assert flight.find("req-00000003") is not None
        assert flight.find("req-99999999") is None

    def test_capacity_zero_disables(self):
        flight = FlightRecorder(capacity=0)
        flight.record(record(1))
        assert not flight.enabled
        assert flight.recorded == 0 and flight.recent() == []

    def test_as_dict_shape(self):
        doc = record(
            7, batch_id="batch-x-000001", batch_size=4,
            queue_seconds=0.002, degraded=True,
            degradations=("evaluation-error",),
        ).as_dict()
        assert doc["trace_id"] == "req-00000007"
        assert doc["ok"] is True
        assert doc["batch_id"] == "batch-x-000001"
        assert doc["queue_ms"] == 2.0
        assert doc["degradations"] == ["evaluation-error"]

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-1)


# ------------------------------------------------------------------ SLO math
class FakeClock:
    def __init__(self, t=1_000_000.0):
        self.t = t

    def __call__(self):
        return self.t


def tracker(objective=None, **kw):
    objective = objective or SloObjective(
        "/analyze", latency_objective=0.1, target=0.999
    )
    clock = FakeClock()
    return SloTracker((objective,), clock=clock, **kw), clock


class TestSloTracker:
    def test_untracked_route_is_ignored(self):
        slo, _ = tracker()
        slo.observe("/healthz", 200, 5.0)
        assert slo.burn_rates("/analyze")["long_total"] == 0

    def test_all_good_burns_nothing(self):
        slo, clock = tracker()
        for _ in range(100):
            slo.observe("/analyze", 200, 0.01)
            clock.t += 1.0
        rates = slo.burn_rates("/analyze")
        assert rates["short_burn"] == rates["long_burn"] == 0.0
        assert slo.verdict("/analyze")["state"] == "ok"

    def test_latency_over_objective_is_bad(self):
        slo, clock = tracker()
        slo.observe("/analyze", 200, 0.5)  # slow counts against budget
        slo.observe("/analyze", 500, 0.01)  # 5xx does too
        slo.observe("/analyze", 404, 0.01)  # 4xx does not
        rates = slo.burn_rates("/analyze")
        assert rates["long_total"] == 3 and rates["long_bad"] == 2

    def test_sustained_failure_breaches(self):
        slo, clock = tracker()
        for _ in range(200):
            slo.observe("/analyze", 500, 0.01)
            clock.t += 1.0
        verdict = slo.verdict("/analyze")
        # all-bad at budget 0.001 -> burn 1000x on both windows
        assert verdict["short_burn"] == pytest.approx(1000.0)
        assert verdict["state"] == "breach"
        report = slo.report()
        assert report["state"] == "breach"

    def test_long_window_overdraft_warns(self):
        slo, clock = tracker(
            SloObjective("/analyze", latency_objective=0.1, target=0.9)
        )
        # 20% bad -> burn 2.0: over budget (warn) but far from 14.4
        for i in range(100):
            slo.observe("/analyze", 500 if i % 5 == 0 else 200, 0.01)
            clock.t += 40.0  # past the short window, inside the long
        verdict = slo.verdict("/analyze")
        assert verdict["long_burn"] >= 1.0
        assert verdict["state"] == "warn"

    def test_windows_prune(self):
        slo, clock = tracker()
        slo.observe("/analyze", 500, 0.01)
        clock.t += 4000.0  # past the 1h window
        slo.observe("/analyze", 200, 0.01)
        rates = slo.burn_rates("/analyze")
        assert rates["long_total"] == 1 and rates["long_bad"] == 0

    def test_export_gauges(self):
        slo, _ = tracker()
        slo.observe("/analyze", 500, 0.01)
        metrics = Metrics()
        slo.export_gauges(metrics)
        assert metrics.gauge("slo.analyze.short_burn").value > 0
        assert metrics.gauge("slo.analyze.long_bad").value == 1

    def test_parse_slo_spec(self):
        objective = parse_slo_spec("/analyze=250", target=0.99)
        assert objective.route == "/analyze"
        assert objective.latency_objective == pytest.approx(0.25)
        assert objective.target == 0.99
        for bad in ("analyze=250", "/analyze", "/analyze=fast"):
            with pytest.raises(ValueError):
                parse_slo_spec(bad)

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective("/x", latency_objective=0.0)
        with pytest.raises(ValueError):
            SloObjective("/x", latency_objective=0.1, target=1.0)


# ---------------------------------------------------------- sampling profiler
class TestSamplingProfiler:
    def test_sample_once_folds_this_stack(self):
        profiler = SamplingProfiler(hz=100)
        assert profiler.sample_once() >= 1  # at least this thread
        text = profiler.collapsed()
        assert text.strip()
        line = text.splitlines()[0]
        stack, count = line.rsplit(" ", 1)
        assert int(count) >= 1
        # this very test function appears in its own sampled stack
        assert any(
            "test_sample_once_folds_this_stack" in part
            for part in stack.split(";")
        )

    def test_snapshot_shape(self):
        profiler = SamplingProfiler(hz=50)
        profiler.sample_once()
        doc = profiler.snapshot(limit=5)
        assert doc["samples"] >= 1 and doc["ticks"] == 1
        assert doc["distinct_stacks"] >= 1
        top = doc["hot_stacks"][0]
        assert top["count"] >= 1 and 0 < top["fraction"] <= 1

    def test_background_sampling_accumulates(self):
        profiler = SamplingProfiler(hz=200)
        with profiler:
            assert profiler.running
            deadline = time.monotonic() + 2.0
            while profiler.samples == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert not profiler.running
        assert profiler.samples > 0

    def test_reset(self):
        profiler = SamplingProfiler(hz=100)
        profiler.sample_once()
        profiler.reset()
        assert profiler.samples == 0 and profiler.collapsed() == ""

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)


# --------------------------------------------------- server: end-to-end wiring
class TestServerAttribution:
    def test_analyze_returns_batch_id_and_flight_record(self):
        app = make_app()
        try:
            status, doc = call(
                app, "POST", "/analyze",
                {"design": "csa4_2", "arrival": {"a0": 1.0}},
            )
            assert status == 200
            assert doc["batch_id"].startswith("batch-csa4_2-")
            status, got = call(
                app, "GET", f"/debug/requests?trace_id={doc['trace_id']}"
            )
            assert status == 200
            rec = got["record"]
            assert rec["trace_id"] == doc["trace_id"]
            assert rec["path"] == "/analyze" and rec["status"] == 200
            assert rec["design"] == "csa4_2"
            assert rec["batch_id"] == doc["batch_id"]
            assert rec["batch_size"] == doc["batch_size"]
        finally:
            app.close()

    def test_concurrent_coalesced_requests_attribute_end_to_end(self):
        """The tentpole contract: under concurrent coalesced load, every
        response's trace id resolves to its flight record, the flush
        span names the request ids it served, and the kernel work
        carries the batch id."""
        app = make_app()
        co = app.registry.get("csa4_2").coalescer
        entered, release = threading.Event(), threading.Event()
        calls = []
        inner = co.evaluate

        def gated(scenarios):
            calls.append(len(scenarios))
            if len(calls) == 1:
                entered.set()
                assert release.wait(10)
            return inner(scenarios)

        co.evaluate = gated
        results = {}

        def client(i):
            results[i] = call(
                app, "POST", "/analyze",
                {"design": "csa4_2", "arrival": {"a0": float(i)}},
            )

        try:
            first = threading.Thread(target=client, args=(0,))
            first.start()
            assert entered.wait(10)
            rest = [
                threading.Thread(target=client, args=(i,))
                for i in (1, 2, 3)
            ]
            for t in rest:
                t.start()
            while co.submitted < 4:
                time.sleep(0.001)
            release.set()
            first.join(10)
            for t in rest:
                t.join(10)

            for i in range(4):
                status, doc = results[i]
                assert status == 200 and doc["batch_id"]
            # requests 1-3 were served by one coalesced batch
            shared = {results[i][1]["batch_id"] for i in (1, 2, 3)}
            assert len(shared) == 1
            batch_id = shared.pop()
            assert batch_id != results[0][1]["batch_id"]
            trace_ids = {results[i][1]["trace_id"] for i in (1, 2, 3)}

            # the flush span names exactly the requests it served
            flushes = [
                r
                for r in app.trace_sink.by_name("coalescer.flush")
                if r.attrs.get("batch_id") == batch_id
            ]
            assert len(flushes) == 1
            assert set(flushes[0].attrs["requests"]) == trace_ids
            assert flushes[0].attrs["batch_size"] == 3

            # kernel work on the flusher thread carries the batch id
            kernel = [
                r
                for r in app.trace_sink.by_name("kernel-propagate")
                if r.trace_id == batch_id
            ]
            assert kernel and kernel[0].attrs["scenarios"] == 3

            # and each response's trace id resolves back to that batch
            for i in (1, 2, 3):
                doc = results[i][1]
                status, got = call(
                    app, "GET",
                    f"/debug/requests?trace_id={doc['trace_id']}",
                )
                assert status == 200
                assert got["record"]["batch_id"] == batch_id
                assert got["record"]["batch_size"] == 3
        finally:
            co.evaluate = inner
            app.close()

    def test_degraded_and_breaker_paths_reach_flight_recorder(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.resilience.breaker.FAILURE_THRESHOLD", 1)
        monkeypatch.setattr("repro.resilience.breaker.RESET_TIMEOUT", 60.0)
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            req = {"design": "csa4_2", "arrival": {}}
            plan.add("server.propagate", kind="exception", times=1)
            status, degraded = call(app, "POST", "/analyze", req)
            assert status == 200 and degraded["degraded"] is True
            status, opened = call(app, "POST", "/analyze", req)
            assert status == 200 and opened["degraded"] is True

            for doc, kind in (
                (degraded, "evaluation-error"),
                (opened, "breaker-open"),
            ):
                status, got = call(
                    app, "GET",
                    f"/debug/requests?trace_id={doc['trace_id']}",
                )
                assert status == 200
                rec = got["record"]
                assert rec["degraded"] is True and rec["ok"] is True
                assert kind in rec["degradations"]
        finally:
            app.close()

    def test_error_responses_land_in_error_ring(self):
        app = make_app()
        try:
            status, doc = call(
                app, "POST", "/analyze",
                {"design": "ghost", "arrival": {}},
            )
            assert status == 404
            status, got = call(app, "GET", "/debug/requests")
            assert status == 200
            errors = got["errors"]
            assert errors and errors[0]["trace_id"] == doc["trace_id"]
            assert errors[0]["error"] == "unknown-design"
            assert errors[0]["status"] == 404
        finally:
            app.close()

    def test_unknown_trace_id_is_a_structured_404(self):
        app = make_app()
        try:
            status, doc = call(
                app, "GET", "/debug/requests?trace_id=req-99999999"
            )
            assert status == 404
            assert doc["error"]["code"] == "unknown-trace-id"
        finally:
            app.close()

    def test_flight_capacity_zero_disables_recording(self):
        app = make_app(flight_capacity=0)
        try:
            status, doc = call(
                app, "POST", "/analyze",
                {"design": "csa4_2", "arrival": {}},
            )
            assert status == 200
            status, got = call(app, "GET", "/debug/requests")
            assert status == 200
            assert got["flight"]["enabled"] is False
            assert got["requests"] == []
        finally:
            app.close()


class TestServerDebugRoutes:
    def test_slow_ring_route(self, monkeypatch):
        monkeypatch.setattr("repro.obs.flight.SLOW_SECONDS", 1e-9)
        app = make_app()  # everything is "slow"
        try:
            call(app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}})
            status, got = call(app, "GET", "/debug/slow?limit=5")
            assert status == 200
            assert got["slow"]
            assert got["slow"][0]["path"] == "/analyze"
        finally:
            app.close()

    def test_limit_validation(self):
        app = make_app()
        try:
            status, doc = call(app, "GET", "/debug/requests?limit=0")
            assert status == 400
            status, doc = call(app, "GET", "/debug/requests?limit=zebra")
            assert status == 400
        finally:
            app.close()

    def test_profile_404_when_disabled(self):
        app = make_app()
        try:
            status, doc = call(app, "GET", "/debug/profile")
            assert status == 404
            assert doc["error"]["code"] == "profiler-disabled"
        finally:
            app.close()

    def test_profile_collapsed_and_json(self):
        profiler = SamplingProfiler(hz=100)
        app = make_app(profiler=profiler)
        try:
            profiler.sample_once()  # deterministic: no timing dependence
            status, ctype, out = app.handle("GET", "/debug/profile")
            assert status == 200
            assert ctype.startswith("text/plain")
            stack, count = out.decode().splitlines()[0].rsplit(" ", 1)
            assert int(count) >= 1 and ";" in stack
            status, doc = call(app, "GET", "/debug/profile?format=json")
            assert status == 200
            assert doc["samples"] >= 1 and doc["hot_stacks"]
            status, doc = call(app, "GET", "/debug/profile?format=xml")
            assert status == 400
        finally:
            app.close()

    def test_healthz_slo_untracked(self):
        app = make_app()
        try:
            status, doc = call(app, "GET", "/healthz/slo")
            assert status == 200 and doc["state"] == "untracked"
        finally:
            app.close()

    def test_healthz_slo_tracks_and_exports_gauges(self):
        app = make_app(
            slo=[SloObjective("/analyze", latency_objective=30.0)]
        )
        try:
            call(app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}})
            status, doc = call(app, "GET", "/healthz/slo")
            assert status == 200
            route = doc["routes"]["/analyze"]
            assert route["long_total"] >= 1 and route["state"] == "ok"
            status, _, out = app.handle("GET", "/metrics")
            text = out.decode()
            assert "slo_analyze_short_burn" in text
            assert "slo_analyze_long_burn" in text
        finally:
            app.close()

    def test_healthz_slo_breach_is_503(self):
        app = make_app(
            slo=[SloObjective("/analyze", latency_objective=1e-12)]
        )
        try:
            for _ in range(5):  # every request misses a 1ps objective
                call(
                    app, "POST", "/analyze",
                    {"design": "csa4_2", "arrival": {}},
                )
            status, doc = call(app, "GET", "/healthz/slo")
            assert status == 503
            assert doc["state"] == "breach"
            assert doc["routes"]["/analyze"]["short_burn"] >= doc[
                "fast_burn_threshold"
            ]
        finally:
            app.close()


class TestServerMetricsExposition:
    def test_metrics_render_histogram_families(self):
        app = make_app()
        try:
            call(app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}})
            status, _, out = app.handle("GET", "/metrics")
            assert status == 200
            text = out.decode()
            assert "# TYPE server_request_seconds histogram" in text
            assert 'server_request_seconds_bucket{le="+Inf"}' in text
            bucket_lines = [
                ln
                for ln in text.splitlines()
                if ln.startswith("server_request_seconds_bucket")
            ]
            assert len(bucket_lines) == len(BUCKET_BOUNDS) + 1
        finally:
            app.close()

    def test_scrape_during_concurrent_requests(self):
        """The satellite-2 hammer: many handler threads serve analysis
        while /metrics and /debug/requests are scraped; nothing races
        and the final counters are exact."""
        app = make_app()
        n, per = 4, 6
        failures = []

        def client(k):
            for i in range(per):
                status, doc = call(
                    app, "POST", "/analyze",
                    {"design": "csa4_2", "arrival": {"a0": float(i)}},
                )
                if status != 200:
                    failures.append((k, i, doc))

        threads = [
            threading.Thread(target=client, args=(k,)) for k in range(n)
        ]
        try:
            for t in threads:
                t.start()
            while any(t.is_alive() for t in threads):
                status, _, out = app.handle("GET", "/metrics")
                assert status == 200 and out
                status, _ = call(app, "GET", "/debug/requests")
                assert status == 200
            for t in threads:
                t.join(10)
            assert not failures
            metrics = app.tracer.metrics
            assert (
                metrics.counter("server.responses.200").value
                == metrics.counter("server.requests").value
            )
            assert app.flight.recorded == int(
                metrics.counter("server.requests").value
            )
            ok = metrics.counter("server.responses.200").value
            assert ok >= n * per
        finally:
            app.close()
