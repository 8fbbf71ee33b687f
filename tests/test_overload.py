"""Overload protection: admission control, breaker degradation, drain.

The serving contract under test: a saturated, faulted, or draining
server never hangs a socket and never answers a raw 500 — excess load
is shed with structured 503s, kernel failures degrade to conservative
topological-bound 200s (sound by Theorem 1), and SIGTERM/Ctrl-C drains
before exit.
"""

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnalysisOptions
from repro.circuits.adders import cascade_adder
from repro.resilience import CircuitBreaker, FaultPlan
from repro.resilience.breaker import CLOSED, FAILURE_THRESHOLD, HALF_OPEN, OPEN
from repro.server import (
    AdmissionGate,
    DegradedRow,
    DesignRegistry,
    TimingServerApp,
    start_server,
)


# --------------------------------------------------------------------- helpers
class RaisingHandle:
    """A compiled handle whose kernel calls fail (everything else is
    the wrapped handle's)."""

    def __init__(self, handle):
        self._handle = handle

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def propagate(self, *args, **kwargs):
        raise RuntimeError("kernel unavailable")


class FakeClock:
    """Deterministic monotonic clock for breaker/gate state machines."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def call(app, method, path, payload=None, raw=None):
    """One app round trip, JSON-decoded."""
    body = raw if raw is not None else (
        b"" if payload is None else json.dumps(payload).encode()
    )
    status, ctype, out = app.handle(method, path, body)
    doc = json.loads(out) if ctype.startswith("application/json") else out
    return status, doc


def make_app(**kw):
    kw.setdefault("max_batch", 8)
    app = TimingServerApp(**kw)
    app.registry.register_design(cascade_adder(4, 2))
    return app


# ------------------------------------------------------------- circuit breaker
class TestCircuitBreaker:
    """The breaker at its constants: :data:`FAILURE_THRESHOLD` (5)
    consecutive failures open it, :data:`RESET_TIMEOUT` (1.0 s) later it
    half-opens, lets one probe through, and that probe settles it."""

    def make(self):
        clock = FakeClock()
        return CircuitBreaker("dut", clock=clock), clock

    def trip(self, breaker):
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()
        assert breaker.state == OPEN

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make()
        for _ in range(4):
            breaker.record_failure()
        breaker.record_success()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_reset_timeout(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(0.5)
        assert breaker.state == OPEN
        clock.advance(0.25)
        assert breaker.state == OPEN
        clock.advance(0.25)  # 1.0 s after opening
        assert breaker.state == HALF_OPEN

    def test_half_open_limits_probes(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()  # claims the single probe slot
        assert not breaker.allow()  # concurrent second caller: fallback

    def test_probe_success_closes(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()  # one successful probe is enough
        assert breaker.state == CLOSED
        assert breaker.allow()
        assert breaker.snapshot()["transitions"] == {
            "closed>open": 1,
            "open>half-open": 1,
            "half-open>closed": 1,
        }

    def test_probe_failure_reopens_and_restarts_clock(self):
        breaker, clock = self.make()
        self.trip(breaker)
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(0.5)
        assert breaker.state == OPEN  # reset clock restarted at reopen
        clock.advance(0.5)
        assert breaker.state == HALF_OPEN

    def test_constants_read_at_call_time(self, monkeypatch):
        breaker, clock = self.make()
        monkeypatch.setattr("repro.resilience.breaker.FAILURE_THRESHOLD", 1)
        monkeypatch.setattr("repro.resilience.breaker.RESET_TIMEOUT", 5.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_snapshot_counts_transitions_and_rejections(self):
        breaker, _ = self.make()
        self.trip(breaker)
        breaker.allow()
        snap = breaker.snapshot()
        assert snap["state"] == OPEN
        assert snap["rejections"] == 1
        assert snap["transitions"] == {"closed>open": 1}


# -------------------------------------------------------------- admission gate
class TestAdmissionGate:
    def test_unbounded_always_admits(self):
        gate = AdmissionGate(max_inflight=None)
        for _ in range(100):
            ok, waited = gate.try_enter()
            assert ok and waited == 0.0

    def test_sheds_past_inflight_with_empty_queue(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        assert gate.try_enter() == (True, 0.0)
        ok, _ = gate.try_enter()
        assert not ok
        assert gate.shed == 1
        gate.leave()
        ok, _ = gate.try_enter()
        assert ok

    def test_queued_request_admitted_on_leave(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1, queue_timeout=5.0)
        assert gate.try_enter()[0]
        got = []
        t = threading.Thread(target=lambda: got.append(gate.try_enter()))
        t.start()
        for _ in range(100):
            if gate.queued:
                break
            time.sleep(0.005)
        assert gate.queued == 1
        gate.leave()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert got[0][0] is True
        assert gate.inflight == 1

    def test_full_queue_sheds_immediately(self):
        gate = AdmissionGate(max_inflight=1, max_queue=1, queue_timeout=5.0)
        gate.try_enter()
        t = threading.Thread(target=gate.try_enter, daemon=True)
        t.start()
        for _ in range(100):
            if gate.queued:
                break
            time.sleep(0.005)
        t0 = time.monotonic()
        ok, _ = gate.try_enter()  # queue already holds one waiter
        assert not ok
        assert time.monotonic() - t0 < 1.0  # no queue wait for shed
        gate.leave()
        t.join(timeout=5.0)

    def test_queue_wait_times_out(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4, queue_timeout=0.05)
        gate.try_enter()
        ok, waited = gate.try_enter()
        assert not ok
        assert waited >= 0.04
        assert gate.shed == 1
        assert gate.queued == 0

    def test_wait_idle(self):
        gate = AdmissionGate(max_inflight=2, max_queue=2)
        gate.try_enter()
        assert not gate.wait_idle(0.05)
        gate.leave()
        assert gate.wait_idle(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)


# ------------------------------------------------------------ app-level limits
class TestAppOverload:
    def test_shed_is_structured_503_with_retry_hint(self):
        app = make_app(max_inflight=1, max_queue=0)
        try:
            ok, _ = app.admission.try_enter()  # occupy the only slot
            assert ok
            status, doc = call(
                app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}}
            )
            assert status == 503
            assert doc["error"]["code"] == "overloaded"
            assert isinstance(doc["retry_after_ms"], int)
            assert doc["retry_after_ms"] >= 10
            assert app.admission.shed == 1
            app.admission.leave()
            status, doc = call(
                app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}}
            )
            assert status == 200
        finally:
            app.close()

    def test_ungated_routes_answer_while_saturated(self):
        app = make_app(max_inflight=1, max_queue=0)
        try:
            app.admission.try_enter()
            for method, path in [
                ("GET", "/healthz"),
                ("GET", "/healthz/ready"),
                ("GET", "/metrics"),
                ("GET", "/trace"),
            ]:
                status, _ = call(app, method, path)
                assert status == 200, (method, path)
            app.admission.leave()
        finally:
            app.close()

    def test_bad_json_is_structured_400(self):
        app = make_app()
        try:
            status, doc = call(app, "POST", "/analyze", raw=b"{nope")
            assert status == 400
            assert doc["error"]["code"] == "bad-json"
            status, doc = call(app, "POST", "/analyze", raw=b"[1, 2]")
            assert status == 400
            assert doc["error"]["code"] == "bad-json"
        finally:
            app.close()

    def test_healthz_reports_admission_and_breakers(self):
        app = make_app(max_inflight=3, max_queue=5)
        try:
            status, doc = call(app, "GET", "/healthz")
            assert status == 200
            assert doc["live"] and doc["ready"]
            assert doc["admission"]["max_inflight"] == 3
            assert doc["breakers"]["csa4_2"]["state"] == CLOSED
        finally:
            app.close()


class TestDrain:
    def test_drain_flips_readiness_and_sheds(self):
        app = make_app()
        try:
            status, _ = call(app, "GET", "/healthz/ready")
            assert status == 200
            app.begin_drain()
            status, doc = call(app, "GET", "/healthz/ready")
            assert status == 503 and doc["ready"] is False
            status, _ = call(app, "GET", "/healthz/live")
            assert status == 200  # liveness unaffected
            status, doc = call(
                app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}}
            )
            assert status == 503
            assert doc["error"]["code"] == "draining"
            status, doc = call(app, "GET", "/healthz")
            assert status == 200 and doc["ready"] is False
            assert app.drain(1.0) is True
        finally:
            app.close()

    def test_drain_waits_for_inflight(self):
        app = make_app(max_inflight=2, max_queue=2)
        try:
            app.admission.try_enter()  # a pinned in-flight request
            app.begin_drain()
            assert app.drain(0.1) is False  # still held: dirty drain
            app.admission.leave()
            assert app.drain(1.0) is True
        finally:
            app.close()


# ------------------------------------------------------- breaker + degradation
class TestDegradedServing:
    def test_kernel_fault_degrades_then_breaker_opens(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.breaker.FAILURE_THRESHOLD", 2)
        monkeypatch.setattr("repro.resilience.breaker.RESET_TIMEOUT", 60.0)
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            req = {"design": "csa4_2", "arrival": {}}
            status, doc = call(app, "POST", "/analyze", req)
            assert status == 200 and "degraded" not in doc
            exact = doc["delay"]
            plan.add("server.propagate", kind="exception", times=2)
            for expected_kind in (
                "evaluation-error",
                "evaluation-error",
                "breaker-open",
            ):
                status, doc = call(app, "POST", "/analyze", req)
                assert status == 200
                assert doc["degraded"] is True
                assert doc["delay"] >= exact - 1e-9
                kinds = [d["kind"] for d in doc["degradations"]]
                assert expected_kind in kinds
            status, doc = call(app, "GET", "/healthz")
            assert doc["breakers"]["csa4_2"]["state"] == OPEN
            status, doc = call(app, "GET", "/designs")
            entry_doc = doc["designs"][0]
            assert entry_doc["degraded_requests"] == 3
            assert entry_doc["breaker"] == OPEN
        finally:
            app.close()

    def test_breaker_recovers_after_reset(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.breaker.FAILURE_THRESHOLD", 1)
        monkeypatch.setattr("repro.resilience.breaker.RESET_TIMEOUT", 0.05)
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            req = {"design": "csa4_2", "arrival": {}}
            plan.add("server.propagate", kind="exception", times=1)
            status, doc = call(app, "POST", "/analyze", req)
            assert doc["degraded"] is True
            time.sleep(0.08)  # reset timeout elapses -> half-open probe
            status, doc = call(app, "POST", "/analyze", req)
            assert status == 200 and "degraded" not in doc
            status, doc = call(app, "GET", "/healthz")
            assert doc["breakers"]["csa4_2"]["state"] == CLOSED
        finally:
            app.close()

    def test_coalescer_flush_fault_still_answers_conservatively(self):
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            req = {"design": "csa4_2", "arrival": {}}
            status, doc = call(app, "POST", "/analyze", req)
            exact = doc["delay"]
            plan.add("coalescer.flush", kind="exception", times=1)
            status, doc = call(app, "POST", "/analyze", req)
            assert status == 200
            assert doc["degraded"] is True
            assert doc["delay"] >= exact - 1e-9
        finally:
            app.close()

    def test_batch_degrades_per_request(self):
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            req = {"design": "csa4_2", "scenarios": [{}, {"a0": 3.0}]}
            status, clean = call(app, "POST", "/batch", req)
            assert status == 200 and "degraded" not in clean
            plan.add("server.propagate", kind="exception", times=1)
            status, doc = call(app, "POST", "/batch", req)
            assert status == 200
            assert doc["degraded"] is True
            assert doc["count"] == 2
            for got, exact in zip(doc["delays"], clean["delays"]):
                assert got >= exact - 1e-9
        finally:
            app.close()

    def test_compile_fault_registers_topological_handle(self):
        plan = FaultPlan().add("server.compile", kind="exception", times=1)
        app = TimingServerApp(
            max_batch=4, options=AnalysisOptions(fault_plan=plan)
        )
        try:
            app.registry.register_design(cascade_adder(4, 2))
            status, doc = call(
                app, "POST", "/analyze", {"design": "csa4_2", "arrival": {}}
            )
            assert status == 200
            kinds = [d["kind"] for d in doc["degradations"]]
            assert "compile-error" in kinds
        finally:
            app.close()


class TestDegradedNets:
    """``include: ["nets"]`` requests skip the coalescer, not the breaker,
    the ``server.propagate`` fault point or the topological fallback."""

    REQUESTS = {
        "/analyze": {"design": "csa4_2", "arrival": {}, "include": ["nets"]},
        "/batch": {
            "design": "csa4_2",
            "scenarios": [{}, {"a0": 3.0}],
            "include": ["nets"],
        },
    }

    @staticmethod
    def net_docs(route, doc):
        return [doc] if route == "/analyze" else doc["scenarios"]

    @pytest.mark.parametrize("route", ["/analyze", "/batch"])
    def test_injected_fault_degrades_every_net(self, route):
        plan = FaultPlan()
        app = make_app(options=AnalysisOptions(fault_plan=plan))
        try:
            nets = set(app.registry.get("csa4_2").handle.plan.nets)
            status, exact = call(app, "POST", route, self.REQUESTS[route])
            assert status == 200 and "degraded" not in exact
            plan.add("server.propagate", kind="exception", times=-1)
            status, doc = call(app, "POST", route, self.REQUESTS[route])
            assert status == 200
            assert doc["degraded"] is True
            assert "evaluation-error" in [
                d["kind"] for d in doc["degradations"]
            ]
            pairs = zip(self.net_docs(route, doc), self.net_docs(route, exact))
            for got, want in pairs:
                assert set(got["nets"]) == nets
                assert got["delay"] >= want["delay"]
                for net, t in want["nets"].items():
                    assert got["nets"][net] >= t - 1e-9  # Theorem 1
        finally:
            app.close()

    @pytest.mark.parametrize("route", ["/analyze", "/batch"])
    def test_raising_handle_answers_200(self, route):
        app = make_app()
        try:
            entry = app.registry.get("csa4_2")
            nets = set(entry.handle.plan.nets)
            entry.handle = RaisingHandle(entry.handle)
            status, doc = call(app, "POST", route, self.REQUESTS[route])
            assert status == 200
            assert doc["degraded"] is True
            for got in self.net_docs(route, doc):
                assert set(got["nets"]) == nets
        finally:
            app.close()


class TestConservativeness:
    """Property: the degraded path is never optimistic (Theorem 1)."""

    @pytest.fixture(scope="class")
    def entry(self):
        registry = DesignRegistry(max_batch=4)
        yield registry.register_design(cascade_adder(4, 2))
        registry.close()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_degraded_rows_bound_exact_rows(self, entry, data):
        inputs = list(entry.handle.inputs)
        times = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=64.0, width=32),
                min_size=len(inputs),
                max_size=len(inputs),
            )
        )
        scenario = dict(zip(inputs, times))
        exact = entry.handle.propagate(
            [scenario], nets=entry.handle.outputs
        )[0]
        degraded = entry.degraded_rows([scenario])[0]
        assert isinstance(degraded, DegradedRow)
        assert degraded.degradations
        for bound, truth in zip(degraded.row.values(), exact.values()):
            assert bound >= truth - 1e-9


# ------------------------------------------------------- eviction vs in-flight
class TestEvictionRace:
    def test_eviction_races_inflight_work(self, monkeypatch):
        """LRU eviction must not lose or corrupt in-flight responses:
        every submit gets either a real row or a clean server-closed."""
        monkeypatch.setattr("repro.server.registry.MAX_DESIGNS", 1)
        monkeypatch.setattr("repro.server.coalescer.MAX_WAIT", 0.005)
        reg = DesignRegistry(max_batch=4)
        first = reg.register_design(cascade_adder(4, 2))
        n_outputs = len(first.handle.outputs)
        outcomes = []
        lock = threading.Lock()
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                outcome = first.coalescer.submit({})
                with lock:
                    outcomes.append(outcome)
                if not outcome.ok:
                    return  # coalescer drained by eviction

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.03)
        reg.register_design(cascade_adder(8, 2))  # evicts `first`
        stop.set()
        for t in threads:
            t.join(timeout=10.0)
            assert not t.is_alive()
        assert outcomes
        assert any(o.ok for o in outcomes)
        for o in outcomes:
            if o.ok:
                row = o.value.row if isinstance(o.value, DegradedRow) else o.value
                assert len(row) == n_outputs
                assert all(isinstance(v, float) for v in row.values())
            else:
                assert o.error == "server-closed"
        reg.close()


# ------------------------------------------------------------- HTTP shell edge
class TestHTTPShell:
    def test_oversized_content_length_rejected_before_buffering(self):
        app = make_app()
        server, thread = start_server(app, port=0, max_body_bytes=1024)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /analyze HTTP/1.1\r\n"
                    b"Content-Length: 999999999\r\n\r\n"
                )
                raw = _read_all(sock)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"413" in head.split(b"\r\n")[0]
            doc = json.loads(body)
            assert doc["error"]["code"] == "body-too-large"
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_garbled_request_line_is_structured_400(self):
        app = make_app()
        server, thread = start_server(app, port=0)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                sock.sendall(b"NONSENSE\r\n\r\n")
                raw = _read_all(sock)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n")[0]
            assert json.loads(body)["error"]["code"] == "bad-request-line"
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_bad_content_length_is_structured_400(self):
        app = make_app()
        server, thread = start_server(app, port=0)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /analyze HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
                )
                raw = _read_all(sock)
            _, _, body = raw.partition(b"\r\n\r\n")
            assert json.loads(body)["error"]["code"] == "bad-content-length"
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_negative_content_length_is_structured_400(self):
        """A negative length is as malformed as a non-numeric one: 400
        ``bad-content-length``, not a 413 that calls it too large."""
        app = make_app()
        server, thread = start_server(app, port=0)
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=5
            ) as sock:
                sock.sendall(
                    b"POST /analyze HTTP/1.1\r\nContent-Length: -1\r\n\r\n"
                )
                raw = _read_all(sock)
            head, _, body = raw.partition(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n")[0]
            assert json.loads(body)["error"]["code"] == "bad-content-length"
        finally:
            server.shutdown()
            thread.join(timeout=5)


def _read_all(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


# ------------------------------------------------------------------ chaos soak
@pytest.mark.slow
@pytest.mark.faulty
class TestChaosSoak:
    """Offered load above capacity plus injected faults: every
    connection still gets well-formed JSON, every degraded answer is
    conservative, no response is a raw 500."""

    CLIENTS = 8
    REQUESTS = 6

    def test_soak_never_hangs_never_500(self, monkeypatch):
        monkeypatch.setattr("repro.resilience.breaker.FAILURE_THRESHOLD", 3)
        monkeypatch.setattr("repro.resilience.breaker.RESET_TIMEOUT", 0.05)
        plan = (
            FaultPlan()
            .add("server.propagate", kind="exception", times=4)
            .add("coalescer.flush", kind="exception", times=3)
            .add("server.propagate", kind="timeout", times=2, seconds=0.01)
        )
        app = TimingServerApp(
            max_batch=8,
            max_inflight=2,
            max_queue=2,
            queue_timeout=0.5,
            options=AnalysisOptions(fault_plan=plan),
        )
        entry = app.registry.register_design(cascade_adder(8, 2))
        exact_delay = max(
            entry.handle.propagate([{}], nets=entry.handle.outputs)[0].values()
        )
        server, thread = start_server(app, port=0)
        responses = []
        errors = []
        lock = threading.Lock()

        def client():
            body = json.dumps({"design": "csa8_2", "arrival": {}})
            for _ in range(self.REQUESTS):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=30
                )
                try:
                    conn.request("POST", "/analyze", body)
                    resp = conn.getresponse()
                    doc = json.loads(resp.read())  # well-formed, always
                    with lock:
                        responses.append((resp.status, doc))
                except Exception as exc:  # noqa: BLE001 - recorded, asserted
                    with lock:
                        errors.append(exc)
                finally:
                    conn.close()

        threads = [
            threading.Thread(target=client) for _ in range(self.CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
            assert not t.is_alive(), "a soak client hung"
        try:
            assert not errors, errors
            assert len(responses) == self.CLIENTS * self.REQUESTS
            shed = degraded = ok = 0
            for status, doc in responses:
                assert status != 500, doc
                if status == 200:
                    ok += 1
                    # degraded or exact, the answer is never optimistic
                    assert doc["delay"] >= exact_delay - 1e-9
                    if doc.get("degraded"):
                        degraded += 1
                        assert doc["degradations"]
                else:
                    assert status == 503
                    assert doc["error"]["code"] in ("overloaded", "draining")
                    shed += 1
            assert ok > 0  # the server did real work under chaos
            # all injected evaluation faults were absorbed as degraded
            # 200s (or breaker-open answers), not surfaced as errors
            assert degraded > 0
        finally:
            server.shutdown()
            thread.join(timeout=10)


# ------------------------------------------------------------- CLI drain + 130
@pytest.mark.slow
class TestServeSignals:
    def _spawn(self, *extra):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        url = None
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if "serving" in line:
                url = line.split()[-1]
                break
        assert url, "server never reported its address"
        return proc, url

    def test_sigint_drains_and_exits_130(self):
        proc, _ = self._spawn()
        try:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130
        assert "SIGINT received: draining" in out

    def test_sigterm_drains_and_exits_0(self):
        proc, url = self._spawn("--preload", "gen:csa4.2")
        try:
            import urllib.request

            with urllib.request.urlopen(url + "/healthz/ready") as r:
                assert r.status == 200
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "SIGTERM received: draining" in out
