"""The analysis service itself: JSON requests in, JSON responses out.

:class:`TimingServerApp` is the transport-agnostic core of the server —
it maps ``(method, path, body)`` to ``(status, content_type, payload)``
without touching sockets, which keeps every endpoint unit-testable and
leaves :mod:`repro.server.http` a thin adapter.

Endpoints::

    GET  /healthz         liveness + readiness + aggregate counters
    GET  /healthz/live    process liveness only (always 200 while up)
    GET  /healthz/ready   200 while accepting work, 503 while draining
    GET  /healthz/slo     per-route SLO burn rates and verdicts
    GET  /metrics         Prometheus text exposition of the registry
    GET  /designs         registered designs (id, name, sizes, stats)
    POST /designs         register a design {"source": "...verilog..."}
    POST /analyze         one scenario, coalesced into kernel batches
    POST /batch           many scenarios, one kernel call
    POST /forensics       conservatism audit (topological vs refined)
    GET  /trace           recent records as Chrome trace-event JSON
    GET  /debug/requests  flight recorder: recent/error requests, or
                          one record by ?trace_id=
    GET  /debug/slow      flight recorder: slow-request ring
    GET  /debug/profile   sampling profiler (collapsed stacks; ?format=json)

Error contract: every non-2xx response is
``{"error": {"code", "message"}, "trace_id"}``; a deadline rejection is
status 504 with the request's ``degradations`` list attached — the same
"every conservative fallback is visible" rule the analyzers follow.

Attribution contract: every request runs under
``tracer.context(trace_id)``, so spans emitted on its handler thread
carry its trace id; coalesced requests additionally get the
``batch_id`` of the kernel batch that served them, both in the response
body and in their flight-recorder record.  Resolving a response's
``trace_id`` via ``GET /debug/requests?trace_id=...`` therefore leads
to the batch, and the batch id leads (as ``trace_id`` on kernel spans
and ``batch_id`` on the ``coalescer.flush`` span, whose ``requests``
attribute lists the request ids it served) to the exact kernel work —
end-to-end, across the coalescer's thread hop.

Overload contract: analysis POSTs pass an :class:`AdmissionGate`
(bounded in-flight work plus a bounded accept queue).  Excess load is
*shed* with a structured 503 ``overloaded`` response carrying a
``retry_after_ms`` hint — before any JSON parsing or evaluation, so a
drowning server spends its cycles on the requests it admitted.  A
draining server (``begin_drain``) sheds everything analysis-shaped with
503 ``draining`` while ``/healthz/ready`` reports 503, letting a load
balancer pull it from rotation before the process exits.

Degradation contract: a kernel evaluation failure — or an open
per-design circuit breaker — never becomes a 500.  The registry
answers from the topological-bound path instead (sound by Theorem 1)
and the response is a 200 with ``degraded: true`` plus the
``Degradation`` records explaining the precision loss.  This holds for
``include: ["nets"]`` requests too: the topological handle has the
same nets.  A scenario family on ``POST /batch`` is the one exception:
its delay overrides index the functional plan, so it has no
topological fallback and evaluates the compiled handle directly.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import TYPE_CHECKING, Mapping, Sequence
from urllib.parse import parse_qsl

from repro.api import AnalysisOptions
from repro.errors import ReproError
from repro.obs.export import chrome_trace_events, render_prometheus
from repro.obs.flight import FlightRecord, FlightRecorder, RequestContext
from repro.obs.sinks import RingBufferSink
from repro.obs.slo import SloObjective, SloTracker
from repro.obs.trace import Tracer
from repro.resilience.degradation import DegradationLog
from repro.scenarios.spec import clean_arrival, read_batch
from repro.server.coalescer import Outcome
from repro.server.registry import (
    DegradedRow,
    DesignRegistry,
    RegisteredDesign,
    UnknownDesign,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profiler import SamplingProfiler

JSON = "application/json"
PROM = "text/plain; version=0.0.4; charset=utf-8"

#: Fields a request may ask to ``include`` in its response.
INCLUDABLE = ("outputs", "nets")

#: Upper bound on one ``/batch`` request's scenario count — explicit
#: lists and family expansions alike; larger requests get a 413
#: ``too-many-scenarios`` before any evaluation.  Read at call time.
MAX_SCENARIOS = 4096

#: Ring-buffer size backing ``GET /trace``.
TRACE_CAPACITY = 4096

#: Routes that carry analysis work and therefore pass the admission
#: gate; health, metrics, and trace reads must stay answerable even
#: when the server is saturated — they are how operators see it.
GATED_ROUTES = frozenset(
    [
        ("POST", "/analyze"),
        ("POST", "/batch"),
        ("POST", "/forensics"),
        ("POST", "/designs"),
    ]
)


class AdmissionGate:
    """Bounded in-flight gate plus bounded accept queue.

    ``max_inflight`` requests may hold the gate at once; up to
    ``max_queue`` more wait (FIFO-ish, condition-variable fairness) for
    at most ``queue_timeout`` seconds.  Anything beyond that is shed
    immediately — the caller turns a False into a structured 503.
    ``max_inflight=None`` disables gating entirely (every ``try_enter``
    admits), preserving the ungated behavior for embedded use.

    The gate is transport-agnostic on purpose: it bounds *admitted
    work*, not sockets, so the same numbers govern the HTTP shell and
    direct ``app.handle`` callers (tests, benchmarks).
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        max_queue: int = 0,
        queue_timeout: float = 5.0,
    ):
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValueError(
                f"max_inflight must be >= 1 or None, got {max_inflight}"
            )
        if int(max_queue) < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if not queue_timeout > 0:  # NaN fails every comparison
            raise ValueError("queue_timeout must be > 0")
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.max_queue = int(max_queue)
        self.queue_timeout = float(queue_timeout)
        self._cond = threading.Condition()
        #: Requests currently holding the gate.
        self.inflight = 0
        #: Requests currently waiting for a slot.
        self.queued = 0
        #: Requests shed (queue full or queue-wait timed out).
        self.shed = 0

    def try_enter(self) -> tuple[bool, float]:
        """Claim a slot; returns ``(admitted, seconds_queued)``.

        Every True **must** be paired with a :meth:`leave`.
        """
        with self._cond:
            if self.max_inflight is None:
                self.inflight += 1
                return True, 0.0
            if self.inflight < self.max_inflight:
                self.inflight += 1
                return True, 0.0
            if self.queued >= self.max_queue:
                self.shed += 1
                return False, 0.0
            t0 = time.monotonic()
            deadline = t0 + self.queue_timeout
            self.queued += 1
            try:
                while self.inflight >= self.max_inflight:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.shed += 1
                        return False, time.monotonic() - t0
                    self._cond.wait(remaining)
                self.inflight += 1
                return True, time.monotonic() - t0
            finally:
                self.queued -= 1
                self._cond.notify()

    def leave(self) -> None:
        """Release a previously claimed slot."""
        with self._cond:
            self.inflight = max(0, self.inflight - 1)
            self._cond.notify()

    def wait_idle(self, timeout: float) -> bool:
        """Block until no request is in flight or queued (drain step).

        Returns True when the gate emptied within ``timeout``.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while self.inflight > 0 or self.queued > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                # cap the wait: queued waiters that give up time out
                # without notifying, so poll rather than sleep forever
                self._cond.wait(min(remaining, 0.05))
            return True

    def snapshot(self) -> dict:
        """JSON-ready gate state (``/healthz`` admission block)."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self.inflight,
                "queued": self.queued,
                "shed": self.shed,
            }


class RequestError(ReproError):
    """A malformed or unserviceable request (maps to 4xx)."""

    def __init__(self, message: str, status: int = 400, code: str = "bad-request"):
        super().__init__(message)
        self.status = status
        self.code = code


class TimingServerApp:
    """Route dispatch plus request/response shaping for the daemon.

    Parameters
    ----------
    registry:
        The design cache; one is created from ``options``/``max_batch``
        when not given.
    options:
        Analysis options for designs registered through the app; its
        ``fault_plan`` (``serve --inject``) arms the registry's and the
        coalescers' fault points.
    max_batch:
        Scenarios per kernel call of each design's request coalescer
        (1 disables coalescing; ignored when ``registry`` is given).
    max_inflight / max_queue / queue_timeout:
        Admission control (see :class:`AdmissionGate`).  ``None``
        in-flight bound keeps the app ungated.
    flight_capacity:
        Flight-recorder records retained per ring; ``0`` disables
        per-request recording.
    slo:
        :class:`~repro.obs.slo.SloObjective` list to track (empty =
        SLO tracking off; ``/healthz/slo`` reports ``untracked``).
    profiler:
        An optional (not yet started)
        :class:`~repro.obs.profiler.SamplingProfiler` backing
        ``GET /debug/profile``; ``None`` keeps the endpoint a 404 and
        costs nothing.
    """

    def __init__(
        self,
        registry: DesignRegistry | None = None,
        *,
        options: AnalysisOptions | None = None,
        max_batch: int = 64,
        max_inflight: int | None = None,
        max_queue: int = 64,
        queue_timeout: float = 5.0,
        flight_capacity: int = 512,
        slo: "Sequence[SloObjective]" = (),
        profiler: "SamplingProfiler | None" = None,
    ):
        self.trace_sink = RingBufferSink(capacity=TRACE_CAPACITY)
        if registry is None:
            tracer = Tracer(sinks=[self.trace_sink])
            registry = DesignRegistry(
                options, max_batch=max_batch, tracer=tracer
            )
        elif registry.tracer.enabled:
            registry.tracer.add_sink(self.trace_sink)
        self.registry = registry
        self.tracer = registry.tracer
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.slo = SloTracker(tuple(slo))
        self.profiler = profiler
        self.admission = AdmissionGate(
            max_inflight=max_inflight,
            max_queue=max_queue,
            queue_timeout=queue_timeout,
        )
        self._draining = threading.Event()
        # EWMA of admitted-request service time, feeding the 503
        # retry_after_ms hint: "come back after roughly one request's
        # worth of work has cleared".
        self._ewma_seconds = 0.0
        self.started_at = time.time()
        self._monotonic_start = time.monotonic()
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        # Per-request instruments, resolved once: _finish runs on every
        # request and five name lookups per call are measurable there.
        # Skipped for the null tracer so its shared registry stays empty.
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            self._requests_counter = metrics.counter("server.requests")
            self._latency_histogram = metrics.histogram(
                "server.request_seconds"
            )
            self._inflight_gauge = metrics.gauge("server.admission.inflight")
            self._queued_gauge = metrics.gauge("server.admission.queued")
            self._status_counters = {
                status: metrics.counter(f"server.responses.{status}")
                for status in (200, 400, 404, 503)
            }
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/healthz/live"): self._healthz_live,
            ("GET", "/healthz/ready"): self._healthz_ready,
            ("GET", "/healthz/slo"): self._healthz_slo,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/designs"): self._designs_get,
            ("POST", "/designs"): self._designs_post,
            ("POST", "/analyze"): self._analyze,
            ("POST", "/batch"): self._batch,
            ("POST", "/forensics"): self._forensics,
            ("GET", "/trace"): self._trace,
            ("GET", "/debug/requests"): self._debug_requests,
            ("GET", "/debug/slow"): self._debug_slow,
            ("GET", "/debug/profile"): self._debug_profile,
        }

    # ------------------------------------------------------------- dispatching
    def handle(
        self, method: str, path: str, body: bytes = b""
    ) -> tuple[int, str, bytes]:
        """One request in, one ``(status, content_type, payload)`` out.

        Never raises: unexpected errors become structured 500s so one
        bad request cannot take a handler thread (or the daemon) down.
        """
        trace_id = f"req-{next(self._trace_ids):08d}"
        path, _, query = path.partition("?")
        path = path.rstrip("/") or "/"
        t0 = time.perf_counter()
        gated = (method, path) in GATED_ROUTES
        admitted = False
        rctx = self._local.rctx = RequestContext()
        try:
            # Bind the trace id for the whole dispatch: every span or
            # event the handler thread emits names this request.
            with self.tracer.context(trace_id):
                # Cheap rejections first: shed load is answered before a
                # single byte of JSON is parsed (the HTTP shell refuses
                # oversized bodies before reading them).
                if gated:
                    if self._draining.is_set():
                        raise RequestError(
                            "server is draining and no longer accepts "
                            "analysis requests",
                            status=503,
                            code="draining",
                        )
                    admitted, waited = self.admission.try_enter()
                    rctx.admission_seconds = waited
                    if self.tracer.enabled and waited > 0:
                        self.tracer.observe(
                            "server.admission.queue_seconds", waited
                        )
                    if not admitted:
                        status, ctype, out = self._shed(trace_id)
                        return self._finish(
                            status, ctype, out, t0, gated=False,
                            method=method, path=path, trace_id=trace_id,
                            rctx=rctx,
                        )
                handler = self._routes.get((method, path))
                if handler is None:
                    known_paths = {p for _, p in self._routes}
                    if path in known_paths:
                        raise RequestError(
                            f"{method} not supported on {path}",
                            status=405,
                            code="method-not-allowed",
                        )
                    raise RequestError(
                        f"unknown endpoint {path!r}",
                        status=404,
                        code="not-found",
                    )
                payload = self._parse_body(method, body)
                if query:
                    for key, value in parse_qsl(query):
                        payload.setdefault(key, value)
                status, ctype, out = handler(payload, trace_id)
        except RequestError as exc:
            status, ctype, out = self._error(
                exc.status, exc.code, str(exc), trace_id
            )
        except UnknownDesign as exc:
            status, ctype, out = self._error(
                404, "unknown-design", str(exc), trace_id
            )
        except ReproError as exc:
            status, ctype, out = self._error(
                400, "bad-request", str(exc), trace_id
            )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            status, ctype, out = self._error(
                500,
                "internal-error",
                f"{type(exc).__name__}: {exc}",
                trace_id,
            )
        finally:
            if admitted:
                self.admission.leave()
            self._local.rctx = None
        return self._finish(
            status, ctype, out, t0, gated=gated,
            method=method, path=path, trace_id=trace_id, rctx=rctx,
        )

    def _request_context(self) -> RequestContext:
        """The current request's mutable annotations (a detached, inert
        context when called outside :meth:`handle` — direct handler
        calls in tests still work)."""
        rctx = getattr(self._local, "rctx", None)
        if rctx is None:
            rctx = RequestContext()
        return rctx

    def _finish(
        self,
        status: int,
        ctype: str,
        out: bytes,
        t0: float,
        *,
        gated: bool,
        method: str = "",
        path: str = "",
        trace_id: str = "",
        rctx: RequestContext | None = None,
    ) -> tuple[int, str, bytes]:
        """Common response bookkeeping: SLO fold, flight record,
        metrics, and the service-time EWMA behind ``retry_after_ms``."""
        elapsed = time.perf_counter() - t0
        if gated:
            # unsynchronized EWMA update: a lost race skews the hint by
            # one sample, which is fine for an advisory number
            prev = self._ewma_seconds
            self._ewma_seconds = (
                elapsed if prev == 0.0 else 0.2 * elapsed + 0.8 * prev
            )
        if trace_id:
            if self.slo.enabled:
                self.slo.observe(path, status, elapsed)
            if self.flight.enabled:
                rctx = rctx or RequestContext()
                self.flight.record(
                    FlightRecord(
                        trace_id=trace_id,
                        method=method,
                        path=path,
                        status=status,
                        finished_at=time.time(),
                        latency_seconds=elapsed,
                        design=rctx.design,
                        batch_id=rctx.batch_id,
                        batch_size=rctx.batch_size,
                        queue_seconds=rctx.queue_seconds,
                        admission_seconds=rctx.admission_seconds,
                        degraded=rctx.degraded,
                        error=rctx.error,
                        degradations=rctx.degradations,
                    )
                )
        if self.tracer.enabled:
            self._requests_counter.inc()
            by_status = self._status_counters.get(status)
            if by_status is None:
                by_status = self._status_counters.setdefault(
                    status,
                    self.tracer.metrics.counter(
                        f"server.responses.{status}"
                    ),
                )
            by_status.inc()
            self._latency_histogram.observe(elapsed)
            gate = self.admission
            self._inflight_gauge.set(gate.inflight)
            self._queued_gauge.set(gate.queued)
        return status, ctype, out

    def _shed(self, trace_id: str) -> tuple[int, str, bytes]:
        """Structured 503 for load shed at the admission gate."""
        if self.tracer.enabled:
            self.tracer.count("server.admission.shed")
        return self._error(
            503,
            "overloaded",
            (
                "server is at capacity "
                f"(max_inflight={self.admission.max_inflight}, "
                f"max_queue={self.admission.max_queue}); retry later"
            ),
            trace_id,
            retry_after_ms=self._retry_after_ms(),
        )

    def _retry_after_ms(self) -> int:
        """Advisory backoff hint: roughly one queued request's worth of
        service time, clamped to a sane band."""
        hint = self._ewma_seconds * (1 + self.admission.queued)
        return max(10, min(30_000, int(hint * 1e3) or 50))

    @staticmethod
    def _parse_body(method: str, body: bytes) -> dict:
        if method != "POST":
            return {}
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RequestError(
                f"request body is not valid JSON: {exc}", code="bad-json"
            )
        if not isinstance(payload, dict):
            raise RequestError(
                "request body must be a JSON object", code="bad-json"
            )
        return payload

    def _error(
        self, status: int, code: str, message: str, trace_id: str, **extra
    ) -> tuple[int, str, bytes]:
        self._request_context().error = code
        doc = {
            "error": {"code": code, "message": message},
            "trace_id": trace_id,
        }
        doc.update(extra)
        return status, JSON, _dumps(doc)

    # ---------------------------------------------------------------- handlers
    def _healthz(self, _payload, trace_id):
        entries = self.registry.list()
        ready = not self._draining.is_set()
        doc = {
            "status": "ok" if ready else "draining",
            "live": True,
            "ready": ready,
            "uptime_seconds": time.monotonic() - self._monotonic_start,
            "designs": len(entries),
            "requests": int(
                self.tracer.metrics.counter("server.requests").value
            ),
            "admission": self.admission.snapshot(),
            "breakers": {
                e.name: e.breaker.snapshot()
                for e in self.registry.entries()
            },
            "flight": self.flight.snapshot(),
            "slo": (
                self.slo.report()["state"]
                if self.slo.enabled
                else "untracked"
            ),
            "trace_id": trace_id,
        }
        return 200, JSON, _dumps(doc)

    def _healthz_live(self, _payload, trace_id):
        """Process liveness: 200 for as long as the app can answer at
        all — restarts are an orchestrator decision, not a drain one."""
        return 200, JSON, _dumps({"live": True, "trace_id": trace_id})

    def _healthz_ready(self, _payload, trace_id):
        """Readiness: 503 once draining so load balancers stop routing
        new work here while in-flight requests finish."""
        ready = not self._draining.is_set()
        doc = {"ready": ready, "trace_id": trace_id}
        return (200 if ready else 503), JSON, _dumps(doc)

    def _metrics(self, _payload, _trace_id):
        if self.slo.enabled and self.tracer.enabled:
            # refresh the slo.* burn-rate gauges so every scrape sees
            # current windows, not the values as of the last request
            self.slo.export_gauges(self.tracer.metrics)
        text = render_prometheus(self.tracer.metrics)
        return 200, PROM, text.encode()

    def _healthz_slo(self, _payload, trace_id):
        """Per-route SLO burn rates; 503 only on a confirmed breach
        (both windows past the fast-burn threshold)."""
        if not self.slo.enabled:
            doc = {"state": "untracked", "routes": {}, "trace_id": trace_id}
            return 200, JSON, _dumps(doc)
        report = self.slo.report()
        report["trace_id"] = trace_id
        status = 503 if report["state"] == "breach" else 200
        return status, JSON, _dumps(report)

    def _debug_requests(self, payload, trace_id):
        """Flight recorder: recent and error rings, or one record by
        ``?trace_id=``."""
        wanted = str(payload.get("trace_id", ""))
        if wanted:
            record = self.flight.find(wanted)
            if record is None:
                raise RequestError(
                    f"no flight record for trace id {wanted!r} (evicted, "
                    "never served here, or recording is disabled)",
                    status=404,
                    code="unknown-trace-id",
                )
            doc = {"trace_id": trace_id, "record": record.as_dict()}
            return 200, JSON, _dumps(doc)
        limit = self._limit_of(payload)
        doc = {
            "trace_id": trace_id,
            "flight": self.flight.snapshot(),
            "requests": [r.as_dict() for r in self.flight.recent(limit)],
            "errors": [r.as_dict() for r in self.flight.errors(limit)],
        }
        return 200, JSON, _dumps(doc)

    def _debug_slow(self, payload, trace_id):
        """Flight recorder: the slow-request ring."""
        limit = self._limit_of(payload)
        doc = {
            "trace_id": trace_id,
            "flight": self.flight.snapshot(),
            "slow": [r.as_dict() for r in self.flight.slow(limit)],
        }
        return 200, JSON, _dumps(doc)

    def _debug_profile(self, payload, trace_id):
        """Sampling profiler: collapsed stacks (default) or
        ``?format=json`` for the structured snapshot."""
        if self.profiler is None:
            raise RequestError(
                "profiling is not enabled on this server (start it "
                "with --sample-hz)",
                status=404,
                code="profiler-disabled",
            )
        fmt = str(payload.get("format", "collapsed"))
        if fmt == "json":
            doc = self.profiler.snapshot(limit=self._limit_of(payload))
            doc["trace_id"] = trace_id
            return 200, JSON, _dumps(doc)
        if fmt != "collapsed":
            raise RequestError(
                f"unknown profile format {fmt!r}; expected 'collapsed' "
                "or 'json'"
            )
        text = self.profiler.collapsed()
        return 200, "text/plain; charset=utf-8", text.encode()

    @staticmethod
    def _limit_of(payload, default: int = 50) -> int:
        try:
            limit = int(payload.get("limit", default))
        except (TypeError, ValueError):
            raise RequestError("'limit' must be an integer") from None
        if limit < 1:
            raise RequestError("'limit' must be >= 1")
        return limit

    def _designs_get(self, _payload, trace_id):
        return 200, JSON, _dumps(
            {"designs": self.registry.list(), "trace_id": trace_id}
        )

    def _designs_post(self, payload, trace_id):
        source = payload.get("source")
        path = payload.get("path")
        if (source is None) == (path is None):
            raise RequestError(
                "provide exactly one of 'source' (netlist text) or "
                "'path' (server-side .v file)"
            )
        if source is not None:
            if not isinstance(source, str):
                raise RequestError("'source' must be a string")
            entry = self.registry.register_source(
                source, filename=str(payload.get("filename", "design.v"))
            )
        else:
            try:
                entry = self.registry.register_file(str(path))
            except OSError as exc:
                raise RequestError(f"{path}: {exc}") from None
        doc = entry.describe()
        doc["trace_id"] = trace_id
        return 200, JSON, _dumps(doc)

    def _analyze(self, payload, trace_id):
        entry = self._entry_of(payload)
        arrival = self._arrival_of(payload, entry)
        include = self._include_of(payload)
        deadline = self._deadline_of(payload)
        if "nets" in include:
            # the coalesced path extracts output rows only; a full net
            # dump is a debugging request, evaluated uncoalesced (still
            # behind the breaker and the topological fallback)
            t0 = time.perf_counter()
            row = self._evaluate(entry, [arrival], entry.handle.plan.nets)[0]
            outcome = Outcome(ok=True, value=row, batch_size=1)
            if deadline is not None and deadline.expired():
                outcome = self._late(
                    deadline, "request", time.perf_counter() - t0, trace_id
                )
        else:
            outcome = entry.coalescer.submit(
                arrival, deadline=deadline, label=trace_id
            )
            if not outcome.ok and outcome.error == "evaluation-error":
                # last line of defense: an evaluation failure that got
                # past the registry's breaker guard (e.g. a fault
                # injected at the coalescer flush itself) still has a
                # sound answer — take the topological bound directly
                entry.breaker.record_failure()
                value = entry.degraded_rows(
                    [arrival],
                    tracer=self.tracer,
                    kind="evaluation-error",
                    detail=outcome.detail,
                )[0]
                outcome = Outcome(
                    ok=True,
                    value=value,
                    batch_size=max(1, outcome.batch_size),
                    batch_id=outcome.batch_id,
                    queue_seconds=outcome.queue_seconds,
                )
        rctx = self._request_context()
        rctx.design = entry.name
        rctx.batch_id = outcome.batch_id
        rctx.batch_size = outcome.batch_size
        rctx.queue_seconds = outcome.queue_seconds
        if not outcome.ok:
            return self._outcome_error(outcome, trace_id)
        entry.requests += 1
        doc = self._row_doc(entry, outcome.value, include)
        doc.update(
            {
                "trace_id": trace_id,
                "design": entry.design_id,
                "name": entry.name,
                "batch_size": outcome.batch_size,
                "queue_ms": round(outcome.queue_seconds * 1e3, 3),
            }
        )
        if outcome.batch_id:
            doc["batch_id"] = outcome.batch_id
        self._attach_degradations(doc, entry, outcome.value)
        if doc.get("degraded"):
            rctx.degraded = True
            rctx.degradations = tuple(
                d["kind"] for d in doc.get("degradations", ())
            )
        return 200, JSON, _dumps(doc)

    def _batch(self, payload, trace_id):
        entry = self._entry_of(payload)
        self._request_context().design = entry.name
        if "scenarios" not in payload or "family" in payload:
            raise RequestError(
                "POST /batch reads its batch from 'scenarios': a list "
                "of arrival vectors, or a scenario-spec or family object "
                "(a family goes under 'scenarios')"
            )
        batch = read_batch(payload["scenarios"], entry.handle.inputs)
        if not isinstance(batch, list):
            return self._batch_family(entry, payload, batch, trace_id)
        self._check_scenario_limit(len(batch))
        include = self._include_of(payload)
        deadline = self._deadline_of(payload)
        t0 = time.perf_counter()
        nets = entry.handle.plan.nets if "nets" in include else None
        rows = self._evaluate(entry, batch, nets)
        elapsed = time.perf_counter() - t0
        if deadline is not None and deadline.expired():
            return self._outcome_error(
                self._late(
                    deadline, f"batch of {len(batch)}", elapsed, trace_id
                ),
                trace_id,
            )
        entry.requests += len(batch)
        docs = [self._row_doc(entry, row, include) for row in rows]
        delays = [d["delay"] for d in docs]
        doc = {
            "trace_id": trace_id,
            "design": entry.design_id,
            "name": entry.name,
            "count": len(docs),
            "delay": max(delays) if delays else None,
            "delays": delays,
            "elapsed_ms": round(elapsed * 1e3, 3),
        }
        if include:
            doc["scenarios"] = docs
        self._attach_degradations(doc, entry, rows)
        self._request_context().note(
            degraded=bool(doc.get("degraded")),
            degradations=tuple(
                d["kind"] for d in doc.get("degradations", ())
            ),
        )
        return 200, JSON, _dumps(doc)

    def _batch_family(self, entry, payload, family, trace_id):
        """The family arm of ``POST /batch``: bound, evaluate."""
        from repro.scenarios import analyze_family

        self._check_scenario_limit(family.count())
        deadline = self._deadline_of(payload)
        t0 = time.perf_counter()
        with self.tracer.span(
            "server-family", phase="analysis", design=entry.name
        ):
            result = analyze_family(entry.handle, family, tracer=self.tracer)
        elapsed = time.perf_counter() - t0
        if deadline is not None and deadline.expired():
            return self._outcome_error(
                self._late(
                    deadline, f"family of {result.count}", elapsed, trace_id
                ),
                trace_id,
            )
        entry.requests += result.count
        doc = result.to_dict()
        doc["family_name"] = doc.pop("name", "")
        doc.update(
            {
                "trace_id": trace_id,
                "design": entry.design_id,
                "name": entry.name,
                "elapsed_ms": round(elapsed * 1e3, 3),
            }
        )
        if entry.handle.degradations:
            doc["degradations"] = [
                d.as_dict() for d in entry.handle.degradations
            ]
        return 200, JSON, _dumps(doc)

    def _late(self, deadline, what: str, seconds: float, trace_id: str):
        """The ``deadline-exceeded`` outcome of ``what`` evaluated past
        its deadline, carrying one ``deadline`` degradation record like
        the coalescer's rejections."""
        detail = (
            f"{what} evaluated in {seconds * 1e3:.1f}ms, past its "
            f"{deadline.limit:g}s deadline"
        )
        log = DegradationLog(self.tracer)
        log.record(
            kind="deadline",
            subject=trace_id,
            detail=detail,
            fallback="request rejected (504); no analysis result returned",
        )
        return Outcome(
            ok=False,
            error="deadline-exceeded",
            detail=detail,
            degradations=log.snapshot(),
        )

    def _evaluate(self, entry: RegisteredDesign, scenarios, nets) -> list:
        """Uncoalesced rows over ``nets`` (``None``: the outputs),
        breaker-guarded with the topological fallback."""
        return entry.evaluate_rows(
            scenarios,
            tracer=self.tracer,
            fault_plan=self.registry.options.fault_plan,
            nets=nets,
        )

    @staticmethod
    def _check_scenario_limit(count: int) -> None:
        limit = MAX_SCENARIOS
        if count > limit:
            raise RequestError(
                f"batch of {count} scenarios exceeds this server's "
                f"max_scenarios limit of {limit}",
                status=413,
                code="too-many-scenarios",
            )

    def _forensics(self, payload, trace_id):
        entry = self._entry_of(payload)
        self._request_context().design = entry.name
        arrival = self._arrival_of(payload, entry)
        with self.tracer.span(
            "server-forensics", phase="analysis", design=entry.name
        ):
            report = entry.session.forensics(arrival)
        entry.requests += 1
        doc = report.as_dict()
        doc["trace_id"] = trace_id
        doc["design"] = entry.design_id
        return 200, JSON, _dumps(doc)

    def _trace(self, _payload, trace_id):
        events = chrome_trace_events(self.trace_sink)
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metrics": self.tracer.metrics.as_dict(),
        }
        return 200, JSON, _dumps(doc)

    # ----------------------------------------------------------- field helpers
    def _entry_of(self, payload) -> RegisteredDesign:
        key = payload.get("design")
        if not key:
            raise RequestError(
                "missing 'design' (a design id from POST /designs or a "
                "top-module name)"
            )
        return self.registry.get(str(key))

    @staticmethod
    def _arrival_of(payload, entry: RegisteredDesign) -> dict[str, float]:
        arrival = clean_arrival(payload.get("arrival", {}), "request")
        unknown = sorted(set(arrival) - set(entry.handle.inputs))
        if unknown:
            raise RequestError(
                f"arrival names unknown input {unknown[0]!r}"
            )
        return arrival

    @staticmethod
    def _include_of(payload) -> tuple[str, ...]:
        include = payload.get("include", [])
        if isinstance(include, str):
            include = [include]
        if not isinstance(include, list):
            raise RequestError("'include' must be a list of field names")
        for field in include:  # tuple membership: no hashing
            if field not in INCLUDABLE:
                raise RequestError(
                    f"unknown include field {field!r}; "
                    f"expected one of {INCLUDABLE}"
                )
        return tuple(include)

    @staticmethod
    def _deadline_of(payload):
        from repro.resilience.policy import Deadline

        seconds = payload.get("deadline")
        if seconds is None:
            return None
        try:
            seconds = float(seconds)
        except (TypeError, ValueError, OverflowError):
            raise RequestError("'deadline' must be a number of seconds")
        if not seconds > 0:  # NaN fails every comparison
            raise RequestError("'deadline' must be > 0 seconds")
        return Deadline(seconds)

    @staticmethod
    def _row_doc(
        entry: RegisteredDesign,
        row: "Mapping[str, float] | DegradedRow",
        include: tuple[str, ...],
    ) -> dict:
        """Response body from a row view: output times (the hot path),
        or with ``include: ["nets"]`` the times of every net of the
        plan."""
        doc: dict = {}
        if isinstance(row, DegradedRow):
            doc["degraded"] = True  # records via _attach_degradations
            row = row.row
        nets = None
        if "nets" in include:
            nets = dict(row.items())
            row = {o: nets[o] for o in entry.handle.outputs}
        doc["delay"] = max(row.values()) if row else None
        if "outputs" in include:
            doc["outputs"] = dict(row.items())
        if nets is not None:
            doc["nets"] = nets
        return doc

    @staticmethod
    def _attach_degradations(doc: dict, entry: RegisteredDesign, value):
        """Merge compile-time and per-row degradation records onto the
        response; flag it ``degraded`` when any row came from the
        topological-bound fallback."""
        records = list(entry.handle.degradations)
        rows = value if isinstance(value, list) else [value]
        degraded = False
        seen = set()
        for row in rows:
            if isinstance(row, DegradedRow):
                degraded = True
                for d in row.degradations:
                    key = (d.kind, d.subject, d.detail)
                    if key not in seen:
                        seen.add(key)
                        records.append(d)
        if degraded:
            doc["degraded"] = True
        if records:
            doc["degradations"] = [d.as_dict() for d in records]

    def _outcome_error(
        self, outcome: Outcome, trace_id: str
    ) -> tuple[int, str, bytes]:
        status = {
            "deadline-exceeded": 504,
            "server-closed": 503,
            "server-stalled": 503,
            "evaluation-error": 500,
        }.get(outcome.error, 500)
        extra = {
            "degradations": [d.as_dict() for d in outcome.degradations],
            "queue_ms": round(outcome.queue_seconds * 1e3, 3),
        }
        if outcome.batch_id:
            extra["batch_id"] = outcome.batch_id
        self._request_context().note(
            batch_id=outcome.batch_id,
            batch_size=outcome.batch_size,
            queue_seconds=outcome.queue_seconds,
            degradations=tuple(
                d.kind for d in outcome.degradations
            ),
        )
        return self._error(
            status, outcome.error, outcome.detail, trace_id, **extra
        )

    # --------------------------------------------------------------- lifecycle
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Stop accepting analysis work; idempotent, non-blocking.

        Flips ``/healthz/ready`` to 503 and makes every gated route
        answer 503 ``draining``.  In-flight and queued requests are
        unaffected — they finish normally.
        """
        if self._draining.is_set():
            return
        self._draining.set()
        if self.tracer.enabled:
            self.tracer.gauge("server.ready", 0)
            self.tracer.event("server-drain-begin", phase="server")

    def drain(self, deadline: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish what was admitted,
        then drain coalescers.  Returns True when everything in flight
        completed within ``deadline`` seconds.

        Safe to call more than once; later calls just re-drain.
        """
        self.begin_drain()
        idle = self.admission.wait_idle(deadline)
        # registry.close drains each coalescer's pending batch; any
        # request still stuck past the deadline gets a structured 503
        # from its coalescer rather than a hung socket
        self.registry.close()
        if self.tracer.enabled:
            self.tracer.event(
                "server-drain-end", phase="server", clean=idle
            )
        return idle

    def close(self) -> None:
        """Drain every design's coalescer and stop the profiler (used
        at daemon shutdown)."""
        if self.profiler is not None:
            self.profiler.stop()
        self.registry.close()


def _dumps(doc: dict) -> bytes:
    """Strict-JSON encoding: non-finite floats become strings, matching
    the Chrome-trace exporter's convention."""
    try:
        return json.dumps(doc, allow_nan=False).encode()
    except ValueError:
        return json.dumps(_definite(doc)).encode()


def _definite(value):
    if isinstance(value, float):
        if value != value:
            return "nan"
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return value
    if isinstance(value, dict):
        return {k: _definite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_definite(v) for v in value]
    return value


__all__ = [
    "AdmissionGate",
    "INCLUDABLE",
    "RequestError",
    "TimingServerApp",
]
