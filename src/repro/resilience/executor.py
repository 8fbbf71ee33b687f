"""Fault-tolerant parallel task execution for leaf characterization.

``run_resilient`` maps a picklable task over payloads with the failure
semantics the analysis stack needs:

* **worker crashes** (``BrokenProcessPool``) rebuild the pool and retry
  the unfinished payloads — one poison task cannot abort the run;
* **per-task timeouts** (``options.module_timeout``, tightened by the
  run deadline) turn a hung task into a retryable failure;
* **retries** follow the fixed backoff-with-jitter schedule
  (:func:`~repro.resilience.policy.backoff_delays`), bounded by
  ``options.retries`` rounds;
* **quarantine**: payloads that keep failing in workers
  (:data:`~repro.resilience.policy.QUARANTINE_AFTER` times) stop being
  handed to processes;
* **serial fallback**: whatever the pool could not finish is attempted
  once in-process; what still fails is reported as a failed outcome and
  the *caller* substitutes the sound topological model (Theorem 1);
* **Ctrl-C** cancels pending futures and shuts the pool down without
  waiting (``cancel_futures=True``) before re-raising, so interactive
  runs die promptly instead of hanging on queued work.

Every recovery step is recorded in the run's
:class:`~repro.resilience.degradation.DegradationLog`.  Results are
merged in payload order, so outcomes are deterministic for any job
count, crash pattern, or completion order.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.obs.trace import ensure_tracer
from repro.resilience.degradation import DegradationLog
from repro.resilience.policy import (
    QUARANTINE_AFTER,
    UNLIMITED,
    Deadline,
    backoff_delays,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import AnalysisOptions


@dataclass
class TaskOutcome:
    """Result slot of one payload (aligned with the input order)."""

    index: int
    subject: str
    result: Any = None
    ok: bool = False
    #: Worker/serial failures observed for this payload.
    failures: int = 0
    #: True once the payload was barred from worker processes.
    quarantined: bool = False


def _subject(subject_of, payload) -> dict:
    ctx = subject_of(payload)
    return dict(ctx) if isinstance(ctx, Mapping) else {"subject": str(ctx)}


def _subject_name(ctx: dict) -> str:
    return ":".join(str(v) for v in ctx.values()) or "?"


def run_resilient(
    task: Callable,
    payloads: Sequence,
    *,
    options: "AnalysisOptions",
    deadline: Deadline | None = None,
    dlog: DegradationLog | None = None,
    subject_of: Callable = lambda payload: {"task": "?"},
    sleep: Callable[[float], None] = time.sleep,
) -> list[TaskOutcome]:
    """Map ``task`` over ``payloads``, surviving crashes and timeouts.

    ``options`` supplies the worker count (``jobs``), the retry rounds
    (``retries``), the per-task timeout (``module_timeout``), the fault
    plan and the tracer.  ``task`` is called as
    ``task(payload, directive, tracer)`` — the directive slot carries
    serialized fault injections into workers (``None`` in production),
    and ``tracer`` is only supplied on the in-process path (it cannot
    cross a process boundary).

    ``subject_of(payload)`` is the payload's context for fault-rule
    matching (e.g. ``{"module": name, "output": port}``); its values,
    joined by ``:``, name the payload in degradation records.
    """
    deadline = deadline if deadline is not None else UNLIMITED
    dlog = dlog if dlog is not None else DegradationLog()
    tracer = ensure_tracer(options.tracer)
    plan = options.fault_plan
    outcomes = [
        TaskOutcome(i, _subject_name(_subject(subject_of, p)))
        for i, p in enumerate(payloads)
    ]
    contexts = [_subject(subject_of, p) for p in payloads]
    pending = list(range(len(payloads)))

    if options.jobs > 1 and len(payloads) > 1:
        pending = _parallel_phase(
            task, payloads, pending, outcomes, contexts,
            options=options, deadline=deadline, dlog=dlog,
            tracer=tracer, plan=plan, sleep=sleep,
        )

    # Serial phase: first attempt of a serial run, or the in-process
    # fallback for everything the pool could not finish.
    for i in pending:
        outcome = outcomes[i]
        if deadline.expired():
            outcome.failures += 1
            dlog.record(
                "deadline",
                outcome.subject,
                f"run deadline expired before {outcome.subject!r} "
                f"was characterized",
                "fallback-model",
            )
            continue
        try:
            if plan is not None:
                plan.fire("scheduler.serial", **contexts[i])
            outcome.result = task(payloads[i], None, tracer)
            outcome.ok = True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            outcome.failures += 1
            dlog.record(
                "task-error",
                outcome.subject,
                f"in-process attempt failed: {exc}",
                "fallback-model",
            )
    return outcomes


def _parallel_phase(
    task, payloads, pending, outcomes, contexts, *,
    options, deadline, dlog, tracer, plan, sleep,
) -> list[int]:
    """Worker-pool rounds with retry/quarantine; returns what is left."""
    workers = min(options.jobs, len(payloads))
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except (OSError, ValueError, ImportError, NotImplementedError):
        return pending  # restricted sandbox: everything goes serial
    backoff = backoff_delays()
    pool_breaks = 0
    rounds = 1 + options.retries
    try:
        for round_no in range(rounds):
            if not pending or deadline.expired():
                break
            eligible = [
                i for i in pending
                if outcomes[i].failures < QUARANTINE_AFTER
            ]
            for i in pending:
                if (
                    i not in eligible
                    and not outcomes[i].quarantined
                ):
                    outcomes[i].quarantined = True
                    dlog.record(
                        "quarantine",
                        outcomes[i].subject,
                        f"{outcomes[i].failures} worker failures",
                        "serial-characterization",
                    )
            if not eligible:
                break
            if round_no > 0:
                if tracer.enabled:
                    tracer.count("resilience.retry_rounds")
                delay = deadline.clamp(next(backoff))
                if delay and delay > 0:
                    sleep(delay)
            futures = {}
            for i in eligible:
                directive = (
                    plan.directive("scheduler.task", **contexts[i])
                    if plan is not None
                    else None
                )
                try:
                    futures[i] = pool.submit(task, payloads[i], directive)
                except BrokenProcessPool:
                    # A worker died mid-submission: a submitted future
                    # reports the crash below; the rest wait a round.
                    break
            still_pending = [i for i in pending if i not in futures]
            broke = False
            for i in futures:
                outcome = outcomes[i]
                if broke:
                    # The pool died; salvage what already finished.
                    future = futures[i]
                    if future.done() and not future.cancelled():
                        try:
                            outcome.result = future.result(timeout=0)
                            outcome.ok = True
                            continue
                        except Exception:
                            pass
                    outcome.failures += 1
                    still_pending.append(i)
                    continue
                timeout = deadline.clamp(options.module_timeout)
                try:
                    outcome.result = futures[i].result(timeout=timeout)
                    outcome.ok = True
                except FuturesTimeout:
                    outcome.failures += 1
                    still_pending.append(i)
                    dlog.record(
                        "task-timeout",
                        outcome.subject,
                        f"no result within {timeout:g}s",
                        "retry",
                    )
                except BrokenProcessPool as exc:
                    broke = True
                    outcome.failures += 1
                    still_pending.append(i)
                    dlog.record(
                        "worker-crash",
                        outcome.subject,
                        str(exc) or "worker process died",
                        "retry",
                    )
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    outcome.failures += 1
                    still_pending.append(i)
                    dlog.record(
                        "task-error",
                        outcome.subject,
                        str(exc),
                        "retry",
                    )
            pending = still_pending
            if broke:
                pool.shutdown(wait=False)
                pool_breaks += 1
                if pool_breaks > max(1, options.retries):
                    pool = None
                    break
                if tracer.enabled:
                    tracer.count("resilience.pool_restarts")
                pool = ProcessPoolExecutor(max_workers=workers)
    except (KeyboardInterrupt, SystemExit):
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
    for i in pending:
        outcome = outcomes[i]
        if (
            outcome.failures >= QUARANTINE_AFTER
            and not outcome.quarantined
        ):
            outcome.quarantined = True
            dlog.record(
                "quarantine",
                outcome.subject,
                f"{outcome.failures} worker failures",
                "serial-characterization",
            )
    return pending
