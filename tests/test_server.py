"""The analysis server: registry, coalescer, app routes, HTTP shell."""

import http.client
import json
import threading
import time

import pytest

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.errors import ReproError
from repro.kernel.execute import propagate_batch
from repro.obs.flight import FlightRecorder
from repro.parsers.verilog import dumps_verilog
from repro.resilience import CircuitBreaker
from repro.resilience.policy import Deadline
from repro.scenarios import MonteCarlo, analyze_family
from repro.server import (
    AdmissionGate,
    DesignRegistry,
    RequestCoalescer,
    TimingServerApp,
    UnknownDesign,
    content_id,
    start_server,
)
from repro.sta.topological import arrival_times_batch


# --------------------------------------------------------------------- helpers
def verilog_source(width, block):
    """Structural-Verilog text for a cascade adder, legally named."""
    design = cascade_adder(width, block)
    design.name = f"csa{width}_{block}"
    return dumps_verilog(design)


def call(app, method, path, payload=None):
    """One app round trip, JSON-decoded when the response is JSON."""
    body = b"" if payload is None else json.dumps(payload).encode()
    status, ctype, out = app.handle(method, path, body)
    doc = json.loads(out) if ctype.startswith("application/json") else out
    return status, doc


@pytest.fixture(scope="module")
def app():
    """One served design (csa4.2, registered as ``csa4_2``)."""
    app = TimingServerApp(max_batch=8)
    app.registry.register_design(cascade_adder(4, 2))
    yield app
    app.close()


# -------------------------------------------------------------------- registry
class TestContentId:
    def test_deterministic_short_hex(self):
        a = content_id("module m; endmodule")
        assert a == content_id("module m; endmodule")
        assert len(a) == 12
        int(a, 16)

    def test_distinct_sources_distinct_ids(self):
        assert content_id("x") != content_id("y")


class TestRegistry:
    def test_register_source_is_idempotent(self):
        reg = DesignRegistry()
        source = verilog_source(4, 2)
        first = reg.register_source(source)
        assert reg.register_source(source) is first
        assert len(reg) == 1

    def test_register_design_sanitizes_name(self):
        reg = DesignRegistry()
        design = cascade_adder(4, 2)
        entry = reg.register_design(design)
        assert entry.name == "csa4_2"
        assert design.name == "csa4.2"  # caller's object untouched
        assert reg.get("csa4_2") is entry
        assert reg.get(entry.design_id) is entry

    def test_unknown_design_raises(self):
        reg = DesignRegistry()
        with pytest.raises(UnknownDesign):
            reg.get("nope")

    def test_lru_eviction(self, monkeypatch):
        monkeypatch.setattr("repro.server.registry.MAX_DESIGNS", 1)
        reg = DesignRegistry()
        first = reg.register_design(cascade_adder(4, 2))
        second = reg.register_design(cascade_adder(8, 2))
        assert len(reg) == 1
        assert reg.get(second.design_id) is second
        with pytest.raises(UnknownDesign):
            reg.get(first.design_id)
        # the evicted entry's coalescer is drained
        outcome = first.coalescer.submit({})
        assert not outcome.ok and outcome.error == "server-closed"

    def test_register_file_rejects_non_verilog(self, tmp_path):
        reg = DesignRegistry()
        f = tmp_path / "x.bench"
        f.write_text("INPUT(a)\n")
        with pytest.raises(ReproError, match="structural Verilog"):
            reg.register_file(f)

    def test_preload_generator_spec(self, tmp_path):
        from repro.cli import preload_design

        reg = DesignRegistry()
        entry = preload_design(reg, "gen:csa4.2")
        assert entry.name == "csa4_2"
        # and a .v file path preloads by content
        f = tmp_path / "adder.v"
        f.write_text(verilog_source(4, 2))
        assert preload_design(reg, str(f)) is entry

    def test_preload_bad_spec_raises(self):
        from repro.cli import preload_design

        with pytest.raises(ReproError):
            preload_design(DesignRegistry(), "gen:unknown")

    def test_flat_source_rejected(self):
        reg = DesignRegistry()
        with pytest.raises(ReproError, match="hierarchical"):
            reg.register_source(
                "module flat(a, z);\n  input a;\n  output z;\n"
                "  not g1(z, a);\nendmodule\n"
            )


# ------------------------------------------------------------------- coalescer
class TestCoalescer:
    def test_solo_request_flushes_immediately(self):
        calls = []

        def evaluate(scenarios):
            calls.append(list(scenarios))
            return [s["v"] * 10 for s in scenarios]

        co = RequestCoalescer(evaluate)
        outcome = co.submit({"v": 3})
        assert outcome.ok and outcome.value == 30
        assert outcome.batch_size == 1
        assert calls == [[{"v": 3}]]
        co.close()

    def test_concurrent_requests_coalesce_into_one_batch(self):
        entered = threading.Event()
        release = threading.Event()
        batches = []

        def evaluate(scenarios):
            batches.append(len(scenarios))
            if len(batches) == 1:
                entered.set()
                assert release.wait(10)
            return [s["v"] for s in scenarios]

        co = RequestCoalescer(evaluate, max_batch=8)
        outcomes = {}

        def client(i):
            outcomes[i] = co.submit({"v": i})

        first = threading.Thread(target=client, args=(0,))
        first.start()
        assert entered.wait(10)
        # these queue while the first batch is stuck evaluating...
        rest = [
            threading.Thread(target=client, args=(i,)) for i in (1, 2, 3)
        ]
        for t in rest:
            t.start()
        while co.submitted < 4:
            time.sleep(0.001)
        release.set()
        first.join(10)
        for t in rest:
            t.join(10)
        # ...and flush together as one kernel call
        assert batches == [1, 3]
        assert all(outcomes[i].value == i for i in range(4))
        assert {outcomes[i].batch_size for i in (1, 2, 3)} == {3}
        assert co.coalesced == 3
        co.close()

    def test_max_batch_one_never_coalesces(self):
        co = RequestCoalescer(lambda s: [0.0] * len(s), max_batch=1)
        threads = [
            threading.Thread(target=co.submit, args=({},))
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert co.coalesced == 0
        assert co.batches == co.submitted == 6
        co.close()

    def test_queued_deadline_rejected_without_evaluation(self):
        entered = threading.Event()
        release = threading.Event()
        seen = []

        def evaluate(scenarios):
            seen.extend(scenarios)
            entered.set()
            assert release.wait(10)
            return [0.0] * len(scenarios)

        co = RequestCoalescer(evaluate)
        slow = threading.Thread(target=co.submit, args=({"id": "a"},))
        slow.start()
        assert entered.wait(10)
        result = {}
        doomed = threading.Thread(
            target=lambda: result.update(
                outcome=co.submit({"id": "b"}, deadline=0.005)
            )
        )
        doomed.start()
        time.sleep(0.05)  # let the deadline lapse while queued
        release.set()
        slow.join(10)
        doomed.join(10)
        outcome = result["outcome"]
        assert not outcome.ok and outcome.error == "deadline-exceeded"
        assert outcome.batch_size == 0  # never reached the kernel
        assert [d.kind for d in outcome.degradations] == ["deadline"]
        assert "queued" in outcome.detail
        assert {s["id"] for s in seen} == {"a"}
        co.close()

    def test_deadline_expiring_during_evaluation_rejects_after(self):
        def evaluate(scenarios):
            time.sleep(0.05)
            return [0.0] * len(scenarios)

        co = RequestCoalescer(evaluate)
        outcome = co.submit({}, deadline=Deadline(0.01))
        assert not outcome.ok and outcome.error == "deadline-exceeded"
        assert "evaluated" in outcome.detail
        co.close()

    def test_evaluation_error_fails_the_batch(self):
        def evaluate(scenarios):
            raise RuntimeError("kernel exploded")

        co = RequestCoalescer(evaluate)
        outcome = co.submit({})
        assert not outcome.ok and outcome.error == "evaluation-error"
        assert "RuntimeError" in outcome.detail
        assert "kernel exploded" in outcome.detail
        co.close()

    def test_result_count_mismatch_is_an_error(self):
        co = RequestCoalescer(lambda s: [])
        outcome = co.submit({})
        assert not outcome.ok and outcome.error == "evaluation-error"
        assert "0 results" in outcome.detail
        co.close()

    def test_submit_after_close_is_rejected(self):
        co = RequestCoalescer(lambda s: [0.0] * len(s))
        co.close()
        outcome = co.submit({})
        assert not outcome.ok and outcome.error == "server-closed"

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            RequestCoalescer(lambda s: s, max_batch=0)
        with pytest.raises(ValueError, match="max_batch"):
            DesignRegistry(max_batch=0)


# ------------------------------------------------------------------ app routes
class TestAppRoutes:
    def test_healthz(self, app):
        status, doc = call(app, "GET", "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["designs"] >= 1
        assert doc["uptime_seconds"] >= 0

    def test_designs_listing(self, app):
        status, doc = call(app, "GET", "/designs")
        assert status == 200
        names = [d["name"] for d in doc["designs"]]
        assert "csa4_2" in names

    def test_register_via_post(self, app):
        source = verilog_source(8, 2)
        status, doc = call(app, "POST", "/designs", {"source": source})
        assert status == 200
        assert doc["design"] == content_id(source)
        # re-registering identical source lands on the same entry
        status, again = call(app, "POST", "/designs", {"source": source})
        assert status == 200 and again["design"] == doc["design"]

    def test_register_requires_exactly_one_input(self, app):
        status, doc = call(app, "POST", "/designs", {})
        assert status == 400
        assert "exactly one" in doc["error"]["message"]
        status, _ = call(
            app, "POST", "/designs", {"source": "x", "path": "y"}
        )
        assert status == 400

    def test_analyze_matches_direct_propagation(self, app):
        arrival = {"a0": 2.0, "b1": 1.5}
        entry = app.registry.get("csa4_2")
        (row,) = entry.handle.propagate(
            [arrival], nets=entry.handle.outputs
        )
        status, doc = call(
            app, "POST", "/analyze", {"design": "csa4_2", "arrival": arrival}
        )
        assert status == 200
        assert doc["delay"] == max(row.values())
        assert doc["design"] == entry.design_id
        assert doc["batch_size"] >= 1

    def test_analyze_include_outputs(self, app):
        status, doc = call(
            app,
            "POST",
            "/analyze",
            {"design": "csa4_2", "arrival": {}, "include": ["outputs"]},
        )
        assert status == 200
        entry = app.registry.get("csa4_2")
        assert set(doc["outputs"]) == set(entry.handle.outputs)
        assert doc["delay"] == max(doc["outputs"].values())

    def test_analyze_include_nets_agrees_with_coalesced_path(self, app):
        arrival = {"a0": 2.0}
        status, lean = call(
            app, "POST", "/analyze", {"design": "csa4_2", "arrival": arrival}
        )
        status2, full = call(
            app,
            "POST",
            "/analyze",
            {"design": "csa4_2", "arrival": arrival, "include": ["nets"]},
        )
        assert status == status2 == 200
        # the direct (all-nets) path and the coalesced (row) path agree
        assert full["delay"] == lean["delay"]
        assert full["nets"]["a0"] == 2.0

    def test_analyze_unknown_design_404(self, app):
        status, doc = call(
            app, "POST", "/analyze", {"design": "ghost", "arrival": {}}
        )
        assert status == 404
        assert doc["error"]["code"] == "unknown-design"

    def test_analyze_field_validation(self, app):
        cases = [
            ({}, "missing 'design'"),
            ({"design": "csa4_2", "arrival": ["x"]}, "'arrival'"),
            ({"design": "csa4_2", "arrival": {"zz": 1}}, "unknown input"),
            ({"design": "csa4_2", "arrival": {"a0": "x"}}, "not a number"),
            ({"design": "csa4_2", "include": ["magic"]}, "include"),
            ({"design": "csa4_2", "include": [{}]}, "include"),
            ({"design": "csa4_2", "include": [["outputs"]]}, "include"),
            ({"design": "csa4_2", "deadline": 0}, "deadline"),
            ({"design": "csa4_2", "deadline": "soon"}, "deadline"),
        ]
        for payload, needle in cases:
            status, doc = call(app, "POST", "/analyze", payload)
            assert status == 400, payload
            assert needle in doc["error"]["message"]

    def test_malformed_bodies(self, app):
        status, _, _ = app.handle("POST", "/analyze", b"{not json")
        assert status == 400
        status, _, out = app.handle("POST", "/analyze", b"[1, 2]")
        assert status == 400
        assert b"JSON object" in out

    def test_unknown_endpoint_and_method(self, app):
        status, doc = call(app, "GET", "/nope")
        assert status == 404 and doc["error"]["code"] == "not-found"
        status, doc = call(app, "GET", "/analyze")
        assert status == 405
        assert doc["error"]["code"] == "method-not-allowed"

    def test_batch_matches_per_scenario_analyze(self, app):
        scenarios = [{}, {"a0": 2.0}, {"b0": 5.0, "a1": 1.0}]
        status, doc = call(
            app,
            "POST",
            "/batch",
            {"design": "csa4_2", "scenarios": scenarios},
        )
        assert status == 200
        assert doc["count"] == 3 and len(doc["delays"]) == 3
        assert doc["delay"] == max(doc["delays"])
        for scenario, delay in zip(scenarios, doc["delays"]):
            _, single = call(
                app,
                "POST",
                "/analyze",
                {"design": "csa4_2", "arrival": scenario},
            )
            assert single["delay"] == delay

    def test_batch_include_outputs(self, app):
        status, doc = call(
            app,
            "POST",
            "/batch",
            {
                "design": "csa4_2",
                "scenarios": [{}, {"a0": 1.0}],
                "include": ["outputs"],
            },
        )
        assert status == 200
        assert len(doc["scenarios"]) == 2
        for per in doc["scenarios"]:
            assert per["delay"] == max(per["outputs"].values())

    def test_batch_requires_scenarios(self, app):
        status, doc = call(app, "POST", "/batch", {"design": "csa4_2"})
        assert status == 400
        assert "scenarios" in doc["error"]["message"]

    def test_batch_scenario_forms_agree(self, app):
        """Every scenario form reads the same at every level of a
        batch: objects, ``{"arrival"}`` objects and aligned lists, in a
        bare list or under a ``scenarios`` key."""
        inputs = list(app.registry.get("csa4_2").handle.inputs)
        aligned = [2.0 if x == "c_in" else 0.0 for x in inputs]
        forms = [{"c_in": 2.0}, {"arrival": {"c_in": 2.0}}, aligned, {}]
        delays = []
        for scenarios in (forms, {"scenarios": forms}):
            status, doc = call(
                app, "POST", "/batch",
                {"design": "csa4_2", "scenarios": scenarios},
            )
            assert status == 200, doc
            delays.append(doc["delays"])
        _, late = call(
            app, "POST", "/analyze",
            {"design": "csa4_2", "arrival": {"c_in": 2.0}},
        )
        _, base = call(app, "POST", "/analyze", {"design": "csa4_2"})
        want = [late["delay"]] * 3 + [base["delay"]]
        assert delays == [want, want]

    def test_forensics(self, app):
        status, doc = call(
            app, "POST", "/forensics", {"design": "csa4_2", "arrival": {}}
        )
        assert status == 200
        assert doc["design"] == app.registry.get("csa4_2").design_id
        assert doc["trace_id"].startswith("req-")

    def test_non_finite_arrival_is_400(self, app):
        for route in ("/analyze", "/forensics"):
            for value in (float("nan"), float("inf"), float("-inf")):
                status, doc = call(
                    app, "POST", route,
                    {"design": "csa4_2", "arrival": {"c_in": value}},
                )
                assert status == 400, (route, value)
                assert doc["error"]["code"] == "bad-request"
                assert "must be finite" in doc["error"]["message"]
        status, doc = call(
            app, "POST", "/analyze",
            {"design": "csa4_2", "arrival": {"nope": 1.0}},
        )
        assert status == 400
        assert "unknown input 'nope'" in doc["error"]["message"]

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("form", ["object", "list"])
    def test_batch_non_finite_arrival_is_400(self, app, form, value):
        # A bare scenario list is checked like every other arrival path.
        inputs = app.registry.get("csa4_2").handle.inputs
        if form == "object":
            item = {"c_in": value}
        else:
            item = [value] + [0.0] * (len(inputs) - 1)
        status, doc = call(
            app, "POST", "/batch", {"design": "csa4_2", "scenarios": [item]}
        )
        assert status == 400, (form, value)
        assert doc["error"]["code"] == "bad-request"
        assert "must be finite" in doc["error"]["message"]

    def test_metrics_exposition(self, app):
        call(app, "GET", "/healthz")
        status, _, out = app.handle("GET", "/metrics")
        assert status == 200
        text = out.decode()
        assert "server_requests" in text
        assert "# TYPE" in text

    def test_trace_chrome_format(self, app):
        status, doc = call(app, "GET", "/trace")
        assert status == 200
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"

    def test_trailing_slash_and_query_string_normalized(self, app):
        status, _ = call(app, "GET", "/healthz/")
        assert status == 200
        status, _ = call(app, "GET", "/healthz?verbose=1")
        assert status == 200


class TestDeadline504:
    def test_expired_deadline_is_structured_504(self, app):
        status, doc = call(
            app,
            "POST",
            "/analyze",
            {"design": "csa4_2", "arrival": {}, "deadline": 1e-9},
        )
        assert status == 504
        assert doc["error"]["code"] == "deadline-exceeded"
        assert [d["kind"] for d in doc["degradations"]] == ["deadline"]
        assert doc["degradations"][0]["fallback"]

    @pytest.mark.parametrize(
        ("route", "body"),
        [
            ("/analyze", {"include": ["nets"]}),
            ("/batch", {"scenarios": [{}, {"a0": 1.0}]}),
            ("/batch", {"scenarios": {"family": "mc", "samples": 2}}),
        ],
        ids=["nets", "batch", "family"],
    )
    def test_every_504_carries_its_deadline_record(self, app, route, body):
        status, doc = call(
            app, "POST", route,
            {"design": "csa4_2", "deadline": 1e-9, **body},
        )
        assert status == 504
        assert doc["error"]["code"] == "deadline-exceeded"
        assert [d["kind"] for d in doc["degradations"]] == ["deadline"]
        assert doc["degradations"][0]["fallback"]

    def test_concurrent_requests_unaffected_by_a_504(self, app):
        results = {}

        def normal(i):
            results[i] = call(
                app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}}
            )

        def doomed():
            results["doomed"] = call(
                app,
                "POST",
                "/analyze",
                {"design": "csa4_2", "arrival": {}, "deadline": 1e-9},
            )

        threads = [threading.Thread(target=normal, args=(i,)) for i in range(4)]
        threads.append(threading.Thread(target=doomed))
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        status, doc = results["doomed"]
        assert status == 504
        delays = set()
        for i in range(4):
            status, doc = results[i]
            assert status == 200
            delays.add(doc["delay"])
        assert len(delays) == 1  # all served the same, correct answer


# ------------------------------------------------------------------ HTTP shell
@pytest.fixture()
def http_app():
    """A private app per HTTP test: ``server.shutdown()`` closes its
    app (drains the registry), so these cannot share the module app."""
    app = TimingServerApp(max_batch=8)
    app.registry.register_design(cascade_adder(4, 2))
    yield app
    app.close()


class TestHTTPServer:
    def test_smoke_over_real_sockets(self, http_app):
        server, thread = start_server(http_app, port=0)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"

            # keep-alive: same connection serves the POST
            body = json.dumps({"design": "csa4_2", "arrival": {}})
            conn.request(
                "POST",
                "/analyze",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["delay"] > 0

            conn.request("GET", "/metrics")
            resp = conn.getresponse()
            assert resp.status == 200
            assert resp.getheader("Content-Type", "").startswith("text/plain")
            assert b"server_requests" in resp.read()

            conn.request("GET", "/definitely-not-a-route")
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
        finally:
            conn.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_garbage_request_line_gets_400(self, http_app):
        import socket

        server, thread = start_server(http_app, port=0)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                head = sock.recv(4096)
            assert head.startswith(b"HTTP/1.1 400")
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    @pytest.mark.slow
    def test_soak_concurrent_clients_identical_answers(self, http_app):
        server, thread = start_server(http_app, port=0)
        entry = http_app.registry.get("csa4_2")
        before = entry.coalescer.coalesced
        delays = []
        errors = []
        lock = threading.Lock()

        def client():
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=30
            )
            body = json.dumps({"design": "csa4_2", "arrival": {"a0": 1.0}})
            try:
                for _ in range(25):
                    conn.request(
                        "POST",
                        "/analyze",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    resp = conn.getresponse()
                    doc = json.loads(resp.read())
                    with lock:
                        if resp.status != 200:
                            errors.append(doc)
                        else:
                            delays.append(doc["delay"])
            finally:
                conn.close()

        clients = [threading.Thread(target=client) for _ in range(8)]
        try:
            for t in clients:
                t.start()
            for t in clients:
                t.join(60)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not errors
        assert len(delays) == 8 * 25
        assert len(set(delays)) == 1  # coalesced batches are bit-identical
        # read the counter off the held entry: shutdown() has already
        # drained the registry by the time we get here
        assert entry.coalescer.coalesced > before


# ---------------------------------------------------- settings are constants
def _removed_setting_cases():
    """``(id, exception, message, check(app))`` per removed setting: a
    flag is an unknown argument, a keyword a ``TypeError``, a class an
    ``AttributeError``."""
    from repro.cli import main

    def flag(command, name, value="1"):
        circuit = [] if command == "serve" else ["design.v"]
        return lambda _app: main([command, *circuit, name, value])

    def keyword(make):
        return lambda app: make(app, app.registry.get("csa4_2"))

    def name_gone(module, name):
        import importlib

        return lambda _app: getattr(importlib.import_module(module), name)

    serve_flags = (
        "--max-wait-ms", "--quiet-wait-ms", "--max-scenarios",
        "--request-deadline", "--drain-deadline", "--breaker-failures",
        "--breaker-reset-ms", "--slow-ms", "--batch-size",
    )
    app_keywords = (
        "coalesce", "default_deadline", "trace_capacity", "max_scenarios",
        "max_body_bytes", "breaker", "slow_threshold",
    )
    keywords = {
        **{f"TimingServerApp-{k}": (
            lambda k: lambda app, entry: TimingServerApp(**{k: None})
        )(k) for k in app_keywords},
        **{f"DesignRegistry-{k}": (
            lambda k: lambda app, entry: DesignRegistry(**{k: None})
        )(k) for k in ("coalesce", "breaker", "max_designs")},
        "RequestCoalescer-config":
            lambda app, entry: RequestCoalescer(list, config=None),
        "RequestCoalescer-clock":
            lambda app, entry: RequestCoalescer(list, clock=None),
        "AdmissionGate-clock": lambda app, entry: AdmissionGate(clock=None),
        "RequestCoalescer.submit-wait_timeout":
            lambda app, entry: entry.coalescer.submit({}, wait_timeout=1.0),
        "CircuitBreaker-config":
            lambda app, entry: CircuitBreaker("x", config=None),
        **{f"FlightRecorder-{k}": (
            lambda k: lambda app, entry: FlightRecorder(**{k: 1})
        )(k) for k in ("slow_threshold", "slow_capacity", "error_capacity")},
        "AnalysisOptions-batch_size":
            lambda app, entry: AnalysisOptions(batch_size=4),
        "propagate_batch-batch_size": lambda app, entry: propagate_batch(
            entry.handle.plan, [[0.0] * len(entry.handle.inputs)],
            batch_size=4,
        ),
        "CompiledDesign.propagate-batch_size":
            lambda app, entry: entry.handle.propagate([{}], batch_size=4),
        "RegisteredDesign.evaluate_rows-batch_size":
            lambda app, entry: entry.evaluate_rows([{}], batch_size=4),
        "RegisteredDesign.degraded_rows-batch_size":
            lambda app, entry: entry.degraded_rows([{}], batch_size=4),
        "analyze_family-batch_size": lambda app, entry: analyze_family(
            entry.handle, MonteCarlo(2), batch_size=4
        ),
        "arrival_times_batch-batch_size":
            lambda app, entry: arrival_times_batch(
                entry.design.flatten(), [{}], batch_size=4
            ),
    }
    names = (
        ("repro.server", "CoalesceConfig"),
        ("repro.server.coalescer", "CoalesceConfig"),
        ("repro.resilience", "BreakerConfig"),
        ("repro.resilience", "BreakerOpen"),
        ("repro.resilience.breaker", "BreakerConfig"),
        ("repro.resilience.breaker", "BreakerOpen"),
    )
    return [
        *[(f"serve {f}", SystemExit, "2", flag("serve", f))
          for f in serve_flags],
        *[(f"{c} --batch-size", SystemExit, "2", flag(c, "--batch-size"))
          for c in ("hier-report", "demand")],
        *[(name, TypeError, name.rsplit("-", 1)[1], keyword(make))
          for name, make in keywords.items()],
        *[(f"{m}.{n}", AttributeError, n, name_gone(m, n)) for m, n in names],
        ("CircuitBreaker.call", AttributeError, "call",
         lambda _app: CircuitBreaker("x").call),
    ]


REMOVED_SETTINGS = _removed_setting_cases()


class TestSettingsAreConstants:
    """Settings with one value in use are module constants: each removed
    flag, keyword and class fails loudly instead of being ignored."""

    @pytest.mark.parametrize(
        ("expected", "message", "check"),
        [case[1:] for case in REMOVED_SETTINGS],
        ids=[case[0] for case in REMOVED_SETTINGS],
    )
    def test_removed_setting_fails_loudly(
        self, app, capsys, expected, message, check
    ):
        with pytest.raises(expected, match=message) as exc:
            check(app)
        if expected is SystemExit:
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error: unrecognized arguments: --")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("port", ["70000", "65536", "-1"])
    def test_serve_port_out_of_range_is_one_error_line(self, port, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", port])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: argument --port: must be between 0 and 65535, "
            f"got {port}\n"
        )
