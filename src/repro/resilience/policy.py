"""Deadlines, timeouts, and retry policy for fail-safe analysis.

The demand-driven algorithm (Section 5) and the two-step flow (Section 3)
share one structural property: they start from a conservative topological
answer and only *refine* toward exactness.  Theorem 1 therefore licenses a
whole family of time/fault trade-offs — any characterization or refinement
step may be skipped, and the analysis stays sound (never optimistic).

:class:`ResiliencePolicy` is the knob bundle for those trade-offs:

* ``deadline_seconds`` — wall-clock budget for a whole analysis run; when
  it expires, remaining output cones fall back to topological models
  and remaining refinements are skipped;
* ``module_timeout`` — per-task budget for one parallel cone
  characterization;
* ``max_retries`` / ``backoff_base`` / ``backoff_cap`` / ``jitter`` —
  exponential-backoff retry schedule for failed worker tasks
  (deterministic per ``jitter_seed``);
* ``quarantine_after`` — failures before a cone is declared poison and
  never handed to a worker process again;
* ``refine_budget`` — per-output cap on demand-driven refinement checks.

:class:`Deadline` is the runtime companion: one instance per analysis
run, started when the run starts, consulted by every layer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faultinject import FaultPlan


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


@dataclass(frozen=True)
class ResiliencePolicy:
    """Fault-tolerance configuration for one analysis stack.

    The defaults keep every production behavior on (worker-crash
    recovery, serial fallback, conservative degradation) while adding no
    time limits; set ``deadline_seconds`` / ``module_timeout`` /
    ``refine_budget`` to bound the run.
    """

    #: Wall-clock budget for the whole run (``None`` = unlimited).
    deadline_seconds: float | None = None
    #: Per-task budget for one parallel characterization (``None`` = none).
    module_timeout: float | None = None
    #: Retry attempts per failed task after the first try.
    max_retries: int = 2
    #: First backoff sleep; doubles per retry round.
    backoff_base: float = 0.05
    #: Ceiling on one backoff sleep.
    backoff_cap: float = 2.0
    #: Jitter fraction applied to each sleep (0 disables).
    jitter: float = 0.25
    #: Seed of the deterministic jitter stream.
    jitter_seed: int = 0
    #: Task failures before the subject is quarantined as poison.
    quarantine_after: int = 3
    #: Per-output cap on demand-driven refinement checks (``None`` = none).
    refine_budget: int | None = None
    #: Deterministic fault-injection plan (tests and drills only).
    fault_plan: "FaultPlan | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.module_timeout is not None and self.module_timeout <= 0:
            raise ValueError("module_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.refine_budget is not None and self.refine_budget < 0:
            raise ValueError("refine_budget must be >= 0")

    def start(self, clock=time.monotonic) -> Deadline:
        """A fresh :class:`Deadline` for one analysis run."""
        return Deadline(self.deadline_seconds, clock=clock)

    def backoff_delays(self) -> Iterator[float]:
        """The retry sleep schedule: exponential, capped, jittered.

        Deterministic per ``jitter_seed`` so retry timing is
        reproducible in tests and incident replays.
        """
        rng = random.Random(self.jitter_seed)
        delay = self.backoff_base
        while True:
            jittered = delay
            if self.jitter > 0.0:
                jittered *= 1.0 + self.jitter * rng.random()
            yield min(jittered, self.backoff_cap)
            delay = min(delay * 2.0, self.backoff_cap)


#: Policy with every default — the implicit configuration of legacy calls.
DEFAULT_POLICY = ResiliencePolicy()
