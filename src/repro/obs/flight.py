"""Flight recorder: bounded per-request history for the analysis server.

A production server's most common debugging question is not "what is
the p99" but "what happened to *this* request five minutes ago".  The
flight recorder answers it without logs: every served request leaves
one bounded :class:`FlightRecord` — route, design, status, latency,
queue waits, the kernel batch that served it, and any degradations —
in a set of in-memory ring buffers:

* **recent** — the last N requests, every status;
* **slow** — requests whose latency reached :data:`SLOW_SECONDS`
  (retained longer than they would survive in ``recent`` under load);
* **errors** — non-2xx responses, again on their own clock.

``GET /debug/requests`` and ``GET /debug/slow`` expose the rings;
:meth:`FlightRecorder.find` resolves a response's ``trace_id`` back to
its record, whose ``batch_id`` names the coalescer flush span (and
therefore the kernel spans) that served it — the end-to-end
attribution chain.

Everything is lock-protected and O(1) per request; recording is a
dataclass construction plus three deque appends, cheap enough to run
on every request unconditionally.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

#: Latency (seconds) at which a request also lands in the slow ring.
#: Read at call time.
SLOW_SECONDS = 0.1


@dataclass(slots=True)
class FlightRecord:
    """One served request, as retained by the flight recorder.

    Treat records as immutable once filed.  Not ``frozen``: one is
    constructed per served request, and a frozen dataclass triples the
    init cost (``object.__setattr__`` per field) for a class nothing
    mutates.
    """

    #: The request's trace id (``req-...``), the lookup key.
    trace_id: str
    #: HTTP method.
    method: str
    #: Normalized route path (``/analyze``, ``/batch``, ...).
    path: str
    #: Response status code.
    status: int
    #: Wall-clock unix time the request finished.
    finished_at: float
    #: End-to-end handler latency (seconds).
    latency_seconds: float
    #: Design name the request addressed ("" for non-design routes).
    design: str = ""
    #: Coalescer batch that served it ("" when not coalesced).
    batch_id: str = ""
    #: Scenarios evaluated in the same kernel call (0 when unknown).
    batch_size: int = 0
    #: Seconds spent queued in the coalescer before dispatch.
    queue_seconds: float = 0.0
    #: Seconds spent waiting at the admission gate.
    admission_seconds: float = 0.0
    #: True when any part of the answer came from a conservative
    #: fallback path (topological bound, breaker open, ...).
    degraded: bool = False
    #: Machine-readable error code for non-2xx responses ("" on 2xx).
    error: str = ""
    #: Degradation kinds attached to the response, in order.
    degradations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def as_dict(self) -> dict:
        """JSON-ready form (the ``/debug/requests`` row)."""
        return {
            "trace_id": self.trace_id,
            "method": self.method,
            "path": self.path,
            "status": self.status,
            "ok": self.ok,
            "finished_at": self.finished_at,
            "latency_ms": round(self.latency_seconds * 1e3, 3),
            "design": self.design,
            "batch_id": self.batch_id,
            "batch_size": self.batch_size,
            "queue_ms": round(self.queue_seconds * 1e3, 3),
            "admission_ms": round(self.admission_seconds * 1e3, 3),
            "degraded": self.degraded,
            "error": self.error,
            "degradations": list(self.degradations),
        }


class FlightRecorder:
    """Bounded, thread-safe rings of :class:`FlightRecord` values.

    Parameters
    ----------
    capacity:
        Records retained in each ring (recent, slow and errors).  ``0``
        disables recording entirely (every call is a cheap no-op), which
        is the obs-overhead benchmark's "off" configuration.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self.enabled = self.capacity > 0
        cap = max(1, self.capacity)
        self._lock = threading.Lock()
        self._recent: deque[FlightRecord] = deque(maxlen=cap)
        self._slow: deque[FlightRecord] = deque(maxlen=cap)
        self._errors: deque[FlightRecord] = deque(maxlen=cap)
        #: Total requests recorded (monotonic, includes evicted).
        self.recorded = 0
        #: Requests that reached :data:`SLOW_SECONDS`.
        self.slow_count = 0
        #: Non-2xx requests recorded.
        self.error_count = 0

    # --------------------------------------------------------------- recording
    def record(self, record: FlightRecord) -> None:
        """File one request; O(1), safe from any handler thread."""
        if not self.enabled:
            return
        with self._lock:
            self.recorded += 1
            self._recent.append(record)
            if record.latency_seconds >= SLOW_SECONDS:
                self.slow_count += 1
                self._slow.append(record)
            if not record.ok:
                self.error_count += 1
                self._errors.append(record)

    # ----------------------------------------------------------------- reading
    def recent(self, limit: int | None = None) -> list[FlightRecord]:
        """The most recent records, newest first."""
        return self._tail(self._recent, limit)

    def slow(self, limit: int | None = None) -> list[FlightRecord]:
        """Slow-ring records, newest first."""
        return self._tail(self._slow, limit)

    def errors(self, limit: int | None = None) -> list[FlightRecord]:
        """Error-ring records, newest first."""
        return self._tail(self._errors, limit)

    def _tail(self, ring: deque, limit: int | None) -> list[FlightRecord]:
        with self._lock:
            records = list(ring)
        records.reverse()
        if limit is not None:
            records = records[: max(0, int(limit))]
        return records

    def find(self, trace_id: str) -> FlightRecord | None:
        """The record for ``trace_id``, searching every ring.

        Newest match wins; the slow and error rings extend the lookback
        past what ``recent`` retains under load.
        """
        with self._lock:
            for ring in (self._recent, self._slow, self._errors):
                for record in reversed(ring):
                    if record.trace_id == trace_id:
                        return record
        return None

    def snapshot(self) -> dict:
        """Aggregate counts (the ``/debug/requests`` header block)."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "capacity": self.capacity,
                "slow_threshold_ms": round(SLOW_SECONDS * 1e3, 3),
                "recorded": self.recorded,
                "slow": self.slow_count,
                "errors": self.error_count,
                "retained": len(self._recent),
            }


@dataclass(slots=True)
class RequestContext:
    """Mutable per-request annotations, filled in as a request moves
    through the app's handlers (thread-local in practice — each request
    is handled on one thread)."""

    design: str = ""
    batch_id: str = ""
    batch_size: int = 0
    queue_seconds: float = 0.0
    admission_seconds: float = 0.0
    degraded: bool = False
    error: str = ""
    degradations: tuple[str, ...] = ()

    def note(self, **fields) -> None:
        """Set several annotations at once (``rctx.note(design=...)``)."""
        for key, value in fields.items():
            setattr(self, key, value)


__all__ = ["FlightRecord", "FlightRecorder", "RequestContext"]
