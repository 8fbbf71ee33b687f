"""Circuit breaker: stop hammering a failing evaluation path.

Theorem 1 gives the analysis stack an unusual luxury: there is always a
*sound* answer available — the topological bound — no matter how broken
the fast path is.  A failing kernel call therefore never needs to
become a 500; it needs to become a conservative 200.  What still needs
managing is *when to stop trying* the fast path: retrying a crashing
backend on every request burns latency budget and log volume for
nothing, while never retrying means a transient fault degrades answers
forever.

:class:`CircuitBreaker` is the standard three-state machine for that
decision, shaped for the server's evaluation paths:

``closed``
    Normal operation.  Calls flow to the protected path; consecutive
    failures are counted and any success resets the count.  After
    :data:`FAILURE_THRESHOLD` consecutive failures the breaker *opens*.
``open``
    The protected path is presumed down.  :meth:`allow` answers False
    and callers serve the conservative fallback immediately — no
    latency spent on a doomed call.  After :data:`RESET_TIMEOUT`
    seconds the breaker moves to ``half-open``.
``half-open``
    One trial call is let through.  Its success closes the breaker;
    its failure re-opens it (and restarts the reset clock).

The breaker is deliberately *advisory*: it never raises into the
caller's path.  The server's registry asks :meth:`allow` and routes to
the topological-bound path on False — shed precision, never
availability.

Thread-safe; every transition is traced (``resilience.breaker.*``
counters plus a ``breaker-transition`` event) so an open breaker is
visible on ``/metrics`` before anyone reads a log.  The clock is
injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time

from repro.obs.trace import Tracer, ensure_tracer

#: The three states, as wire-friendly strings (shown on ``/healthz``).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Numeric encoding for the state gauge (``closed=0 open=1 half-open=2``).
STATE_CODES = {CLOSED: 0, OPEN: 1, HALF_OPEN: 2}

#: Consecutive failures (closed state) before a breaker opens.  Read at
#: call time.
FAILURE_THRESHOLD = 5
#: Seconds an open breaker waits before letting one probe through
#: (half-open).  Read at call time.
RESET_TIMEOUT = 1.0


class CircuitBreaker:
    """Closed → open → half-open failure detector for one subject.

    Callers bracket the protected call::

        if breaker.allow():
            try:
                value = risky()
            except Exception:
                breaker.record_failure()
                value = fallback()
            else:
                breaker.record_success()
        else:
            value = fallback()
    """

    def __init__(
        self,
        name: str = "",
        *,
        tracer: Tracer | None = None,
        clock=time.monotonic,
    ):
        self.name = name
        self.tracer = ensure_tracer(tracer)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0  # consecutive, closed state only
        self._opened_at = 0.0
        self._probing = False  # the half-open state's one trial call
        #: Transition count by ``"from>to"`` (diagnostics, /healthz).
        self.transitions: dict[str, int] = {}
        #: Calls rejected while open (served from the fallback path).
        self.rejections = 0

    # ---------------------------------------------------------------- queries
    @property
    def state(self) -> str:
        """Current state, advancing ``open`` → ``half-open`` on its own
        once the reset timeout has elapsed."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    def allow(self) -> bool:
        """True when the caller should attempt the protected path.

        In half-open state a True answer *claims the one probe*; the
        caller must follow up with :meth:`record_success` or
        :meth:`record_failure` to settle it.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.rejections += 1
            if self.tracer.enabled:
                self.tracer.count("resilience.breaker.rejections")
            return False

    def snapshot(self) -> dict:
        """JSON-ready diagnostics (``/healthz`` breaker block)."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "rejections": self.rejections,
                "transitions": dict(self.transitions),
            }

    # ---------------------------------------------------------------- updates
    def record_success(self) -> None:
        """Note one successful protected call."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(CLOSED)
            elif self._state == CLOSED:
                self._failures = 0

    def record_failure(self) -> None:
        """Note one failed protected call."""
        with self._lock:
            if self._state == HALF_OPEN:
                self._transition(OPEN)
            elif self._state == CLOSED:
                self._failures += 1
                if self._failures >= FAILURE_THRESHOLD:
                    self._transition(OPEN)
            else:  # already open (e.g. concurrent failures racing the trip)
                self._opened_at = self._clock()

    # --------------------------------------------------------------- internal
    def _maybe_half_open(self) -> None:
        """Open → half-open once the reset timeout elapses (lock held)."""
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= RESET_TIMEOUT
        ):
            self._transition(HALF_OPEN)

    def _transition(self, to: str) -> None:
        """Move to ``to`` and reset per-state counters (lock held)."""
        frm = self._state
        if frm == to:
            return
        self._state = to
        self._failures = 0
        self._probing = False
        if to == OPEN:
            self._opened_at = self._clock()
        key = f"{frm}>{to}"
        self.transitions[key] = self.transitions.get(key, 0) + 1
        if self.tracer.enabled:
            self.tracer.count("resilience.breaker.transitions")
            self.tracer.count(f"resilience.breaker.transitions.{key}")
            self.tracer.gauge(
                f"resilience.breaker.state.{self.name or 'breaker'}",
                STATE_CODES[to],
            )
            self.tracer.event(
                "breaker-transition",
                phase="resilience",
                breaker=self.name,
                transition=key,
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker({self.name!r}, state={self.state!r})"


__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
]
