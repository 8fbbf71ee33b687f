"""Request coalescing: concurrency in, kernel batches out.

An HTTP request carries one scenario, but the compiled kernel takes a
batch.  The coalescer is the adapter between those shapes: request
threads :meth:`submit` one scenario each and block; a per-design
flusher thread collects the in-flight scenarios and evaluates them as
**one** :func:`~repro.kernel.execute.propagate_batch` call, then wakes
every waiter with its own row.

Flush policy: a batch closes when

* ``max_batch`` scenarios are pending, or
* the collection window has been open :data:`MAX_WAIT` seconds, or
* no new request has arrived for :data:`QUIET_WAIT` seconds (the
  debounce that lets a closed-loop burst of clients fill a batch
  without every batch paying the full :data:`MAX_WAIT`).

:data:`MAX_WAIT` bounds the *window*, not a request's total queue age: a
request that arrived while the previous batch was evaluating has
already waited, but restarting its clock when the flusher becomes free
is what lets the other half of the fleet (whose replies are still being
written) rejoin the same batch — otherwise a population of N clients
settles into alternating half-full batches and never fills one.

The debounce is *adaptive*: it only applies while the previous batch
actually coalesced (``> 1`` scenarios).  A solo client's requests flush
immediately — making it wait :data:`QUIET_WAIT` for batch-mates that never
come would tax the idle case to help the busy one — and the first
request of a burst bootstraps batching for free, because its batch-mates
queue up while it evaluates.

``max_batch=1`` degenerates to no coalescing — every request is its own
kernel call, serialized through the flusher — which is exactly the
baseline configuration ``tools/bench_server.py`` measures against.

Trace attribution: every dispatched batch gets a process-unique
``batch_id``.  The flusher evaluates under ``tracer.context(batch_id)``
inside a ``coalescer.flush`` span whose attributes name the request
trace ids it serves, so the kernel spans emitted on the flusher thread
carry the batch id and the flush span carries the request ids — the two
hops that stitch an HTTP response back to the exact kernel call that
produced it (the request's own thread-local trace context cannot cross
the thread boundary).  Each :class:`Outcome` echoes the ``batch_id`` so
the server can return it to the client and file it in the flight
recorder.

Deadlines: each request may carry a
:class:`~repro.resilience.policy.Deadline`.  A request whose deadline
expires while queued is rejected *without* evaluating it (and without
delaying its batch-mates); one that completes past its deadline is
rejected after the fact.  Both outcomes are structured 504-style
:class:`Outcome` values carrying a
:class:`~repro.resilience.degradation.Degradation` record, mirroring
the analyzer layers' "every fallback is visible" contract.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.obs.trace import Tracer, ensure_tracer
from repro.resilience.degradation import Degradation, DegradationLog
from repro.resilience.policy import Deadline


#: Ceiling on the collection window: flush once the flusher has been
#: gathering a batch for this long (seconds).  Read at call time.
MAX_WAIT = 0.010
#: Debounce: flush once no new request has arrived for this long
#: (seconds); keeps bursts together without paying :data:`MAX_WAIT`.
#: Only applied while the previous batch coalesced (see the module
#: docstring), so a solo client never waits for phantom batch-mates.
#: Read at call time.
QUIET_WAIT = 0.002
#: Liveness bound on one :meth:`RequestCoalescer.submit` wait (seconds):
#: a stuck flusher yields a ``server-stalled`` outcome rather than a hung
#: connection.  Read at call time.
STALL_WAIT = 60.0


@dataclass
class Outcome:
    """What happened to one submitted request."""

    #: True when :attr:`value` holds the evaluation result.
    ok: bool
    #: The per-request evaluation result (one element of the batch).
    value: object = None
    #: Machine-readable failure kind (``deadline-exceeded``,
    #: ``evaluation-error``, ``server-closed``) when not ok.
    error: str = ""
    #: Human-readable failure detail when not ok.
    detail: str = ""
    #: Conservative-fallback records explaining a rejection.
    degradations: tuple[Degradation, ...] = ()
    #: Seconds the request waited before its batch was dispatched.
    queue_seconds: float = 0.0
    #: Scenarios evaluated in the same kernel call (0 on rejection
    #: before evaluation).
    batch_size: int = 0
    #: Process-unique id of the kernel batch that served this request
    #: ("" when rejected before dispatch); matches the ``batch_id``
    #: attribute on the flusher's ``coalescer.flush`` span and the
    #: ``trace_id`` on the kernel spans inside it.
    batch_id: str = ""


class _Pending:
    __slots__ = (
        "scenario", "deadline", "enqueued", "done", "outcome", "label",
    )

    def __init__(self, scenario, deadline, enqueued, label):
        self.scenario = scenario
        self.deadline: Deadline | None = deadline
        self.enqueued: float = enqueued
        self.done = threading.Event()
        self.outcome: Outcome | None = None
        self.label = label


class RequestCoalescer:
    """Collects concurrent single-scenario requests into kernel batches.

    Parameters
    ----------
    evaluate:
        ``evaluate(scenarios) -> results`` — one result per scenario,
        called from the flusher thread only (so ``max_batch=1`` also
        serializes evaluation, the honest no-coalescing baseline).
    max_batch:
        Scenarios per kernel call; 1 disables coalescing entirely.
    tracer:
        Receives ``server.coalescer.*`` counters and histograms.
    name:
        Label for trace records (usually the design name).
    fault_plan:
        Optional chaos plan; its ``coalescer.flush`` trace point fires
        at the top of every batch flush (so injected crashes/timeouts
        exercise the whole-batch error path, not just the kernel).
    """

    def __init__(
        self,
        evaluate: Callable[[list], Sequence],
        *,
        max_batch: int = 64,
        tracer: Tracer | None = None,
        name: str = "",
        fault_plan=None,
    ):
        if int(max_batch) < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.evaluate = evaluate
        self.max_batch = int(max_batch)
        self.tracer = ensure_tracer(tracer)
        self.name = name
        self.fault_plan = fault_plan
        self._cond = threading.Condition()
        self._pending: list[_Pending] = []
        self._newest: float = 0.0
        self._thread: threading.Thread | None = None
        self._closed = False
        #: Total requests submitted (monotonic; read by /healthz).
        self.submitted = 0
        #: Total batches flushed.
        self.batches = 0
        #: Requests that shared a kernel call with at least one other.
        self.coalesced = 0
        #: Process-unique batch sequence (feeds Outcome.batch_id).
        self._batch_ids = itertools.count(1)
        #: Size of the last flushed batch: > 1 means a concurrent
        #: regime, where the quiet-wait debounce is worth paying.
        self._last_batch = 0

    # ------------------------------------------------------------- client side
    def submit(
        self,
        scenario,
        deadline: Deadline | float | None = None,
        label: str = "",
    ) -> Outcome:
        """Enqueue one scenario and block until its batch completes.

        ``deadline`` is a started :class:`Deadline` or a budget in
        seconds (started here).  The wait is bounded by
        :data:`STALL_WAIT` for liveness.
        """
        if isinstance(deadline, (int, float)):
            deadline = Deadline(float(deadline))
        pending = _Pending(scenario, deadline, time.monotonic(), label)
        with self._cond:
            if self._closed:
                return self._closed_outcome()
            self._pending.append(pending)
            self._newest = pending.enqueued
            self.submitted += 1
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run,
                    name=f"coalescer:{self.name or 'design'}",
                    daemon=True,
                )
                self._thread.start()
            self._cond.notify_all()
        stall = STALL_WAIT
        if not pending.done.wait(stall):
            return Outcome(
                ok=False,
                error="server-stalled",
                detail=(
                    f"request waited {stall:g}s without being dispatched"
                ),
                queue_seconds=time.monotonic() - pending.enqueued,
            )
        assert pending.outcome is not None
        return pending.outcome

    # ------------------------------------------------------------ flusher side
    def _run(self) -> None:
        max_batch = self.max_batch
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending and self._closed:
                    return
                # Collecting window: wait for max-batch, window-age, or
                # quiet-period flush, whichever comes first.  A closed
                # coalescer flushes whatever is pending immediately, as
                # does a solo-client regime (last batch did not
                # coalesce — waiting would buy nothing).
                window_start = time.monotonic()
                while not self._closed and self._last_batch > 1:
                    if len(self._pending) >= max_batch:
                        break
                    now = time.monotonic()
                    # the quiet clock starts no earlier than the window:
                    # arrivals queued during the previous evaluation look
                    # stale, but their batch-mates' replies are still in
                    # flight and resends are about to land
                    flush_at = min(
                        window_start + MAX_WAIT,
                        max(self._newest, window_start) + QUIET_WAIT,
                    )
                    if flush_at <= now:
                        break
                    self._cond.wait(flush_at - now)
                batch = self._pending[:max_batch]
                del self._pending[: len(batch)]
                self._last_batch = len(batch)
            self._flush(batch)

    def _flush(self, batch: list[_Pending]) -> None:
        now = time.monotonic()
        live: list[_Pending] = []
        for pending in batch:
            queue_seconds = now - pending.enqueued
            if (
                pending.deadline is not None
                and pending.deadline.expired()
            ):
                self._reject_deadline(pending, queue_seconds, "queued")
            else:
                live.append(pending)
        if not live:
            return
        # Process-unique batch id: the attribution key.  The flush span
        # names the request trace ids it serves; binding the batch id
        # as the flusher thread's trace context stamps it onto every
        # kernel span the evaluation emits.
        batch_id = f"batch-{self.name or 'design'}-{next(self._batch_ids):06d}"
        request_ids = tuple(p.label for p in live if p.label)
        try:
            if self.fault_plan is not None:
                self.fault_plan.fire(
                    "coalescer.flush", design=self.name, batch=len(live)
                )
            with self.tracer.context(batch_id), self.tracer.span(
                "coalescer.flush",
                design=self.name,
                batch_id=batch_id,
                batch_size=len(live),
                requests=request_ids,
            ):
                values = list(self.evaluate([p.scenario for p in live]))
        except Exception as exc:
            for pending in live:
                pending.outcome = Outcome(
                    ok=False,
                    error="evaluation-error",
                    detail=f"{type(exc).__name__}: {exc}",
                    batch_size=len(live),
                    batch_id=batch_id,
                    queue_seconds=now - pending.enqueued,
                )
                pending.done.set()
            self._count("server.coalescer.errors")
            return
        done_at = time.monotonic()
        if len(values) != len(live):  # defensive: evaluate broke contract
            for pending in live:
                pending.outcome = Outcome(
                    ok=False,
                    error="evaluation-error",
                    detail=(
                        f"evaluate returned {len(values)} results for "
                        f"{len(live)} scenarios"
                    ),
                    batch_size=len(live),
                    batch_id=batch_id,
                    queue_seconds=now - pending.enqueued,
                )
                pending.done.set()
            self._count("server.coalescer.errors")
            return
        for pending, value in zip(live, values):
            queue_seconds = now - pending.enqueued
            if (
                pending.deadline is not None
                and pending.deadline.expired()
            ):
                self._reject_deadline(
                    pending, done_at - pending.enqueued, "evaluated"
                )
                continue
            pending.outcome = Outcome(
                ok=True,
                value=value,
                queue_seconds=queue_seconds,
                batch_size=len(live),
                batch_id=batch_id,
            )
            pending.done.set()
        self.batches += 1
        if len(live) > 1:
            self.coalesced += len(live)
        if self.tracer.enabled:
            self.tracer.count("server.coalescer.batches")
            self.tracer.count("server.coalescer.scenarios", len(live))
            self.tracer.observe("server.coalescer.batch_size", len(live))
            self.tracer.observe(
                "server.coalescer.evaluate_seconds", done_at - now
            )

    def _reject_deadline(
        self, pending: _Pending, waited: float, stage: str
    ) -> None:
        log = DegradationLog(self.tracer)
        limit = pending.deadline.limit
        log.record(
            kind="deadline",
            subject=pending.label or self.name or "request",
            detail=(
                f"request {stage} for {waited * 1e3:.1f}ms, past its "
                f"{limit:g}s deadline"
            ),
            fallback="request rejected (504); no analysis result returned",
        )
        pending.outcome = Outcome(
            ok=False,
            error="deadline-exceeded",
            detail=(
                f"deadline of {limit:g}s exceeded after "
                f"{waited * 1e3:.1f}ms ({stage})"
            ),
            degradations=log.snapshot(),
            queue_seconds=waited,
        )
        pending.done.set()
        self._count("server.coalescer.deadline_rejections")

    def _count(self, name: str) -> None:
        if self.tracer.enabled:
            self.tracer.count(name)

    def _closed_outcome(self) -> Outcome:
        return Outcome(
            ok=False,
            error="server-closed",
            detail="server is shutting down",
        )

    # --------------------------------------------------------------- lifecycle
    def close(self, timeout: float = 5.0) -> None:
        """Stop accepting requests; flush or fail whatever is queued.

        Pending requests are still dispatched (the flusher drains the
        queue before exiting) so a graceful shutdown loses nothing.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)


__all__ = ["Outcome", "RequestCoalescer"]
