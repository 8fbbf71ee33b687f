"""Deadlines and the retry schedule for fail-safe analysis.

The demand-driven algorithm (Section 5) and the two-step flow (Section 3)
share one structural property: they start from a conservative topological
answer and only *refine* toward exactness.  Theorem 1 therefore licenses a
whole family of time/fault trade-offs — any characterization or refinement
step may be skipped, and the analysis stays sound (never optimistic).

The knobs of those trade-offs are :class:`~repro.api.AnalysisOptions`
fields (``deadline``, ``module_timeout``, ``retries``, ``refine_budget``,
``fault_plan``).  This module holds what is not a knob:

* :class:`Deadline` — the runtime companion of ``deadline``: one
  instance per analysis run, started when the run starts, consulted by
  every layer;
* :func:`backoff_delays` — the fixed retry sleep schedule of failed
  worker tasks (exponential, capped, deterministically jittered);
* :data:`QUARANTINE_AFTER` — worker failures before a task is declared
  poison and never handed to a worker process again.
"""

from __future__ import annotations

import random
import time
from typing import Iterator

from repro.errors import AnalysisError

#: Worker failures before a task is quarantined as poison.
QUARANTINE_AFTER = 3


def backoff_delays() -> Iterator[float]:
    """The retry sleep schedule: exponential, capped, jittered.

    Starts at 0.05 s and doubles up to a 2 s cap; each sleep gets up to
    25% jitter from a stream seeded with 0, so retry timing is
    reproducible in tests and incident replays.
    """
    rng = random.Random(0)
    delay = 0.05
    while True:
        yield min(delay * (1.0 + 0.25 * rng.random()), 2.0)
        delay = min(delay * 2.0, 2.0)


class DeadlineExceeded(AnalysisError):
    """An analysis step ran past its wall-clock deadline.

    Internal control flow: layers that honor deadlines catch this and
    degrade conservatively instead of letting it escape to callers.
    """


class Deadline:
    """One run's wall-clock budget (``None`` seconds = unlimited).

    Started at construction; every layer asks :meth:`remaining` /
    :meth:`expired` instead of tracking its own clocks.  ``clock`` is
    injectable for deterministic tests.
    """

    __slots__ = ("_clock", "_limit", "_t0")

    def __init__(self, seconds: float | None, clock=time.monotonic):
        self._clock = clock
        self._t0 = clock()
        self._limit = None if seconds is None else float(seconds)

    @property
    def limited(self) -> bool:
        """True when a finite budget was set."""
        return self._limit is not None

    @property
    def limit(self) -> float | None:
        """The budget in seconds (``None`` when unlimited)."""
        return self._limit

    def elapsed(self) -> float:
        """Seconds since the deadline started."""
        return self._clock() - self._t0

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or ``None`` when unlimited."""
        if self._limit is None:
            return None
        return self._limit - self.elapsed()

    def expired(self) -> bool:
        """True once the budget is spent."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0.0

    def check(self, what: str = "analysis") -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(
                f"{what} exceeded the {self._limit:g}s deadline"
            )

    def clamp(self, timeout: float | None) -> float | None:
        """Tighten ``timeout`` (per-task budget) to the time left.

        ``None`` from both sides means wait forever; otherwise the
        smaller of the two budgets wins and is floored at a tiny positive
        value so callers can still pass it to blocking waits.
        """
        remaining = self.remaining()
        if remaining is None:
            return timeout
        remaining = max(remaining, 1e-3)
        if timeout is None:
            return remaining
        return min(float(timeout), remaining)


#: Deadline that never expires — the default for every analysis run.
UNLIMITED = Deadline(None)


