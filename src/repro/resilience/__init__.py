"""Fail-safe analysis: deadlines, fault tolerance, conservative degradation.

The demand-driven algorithm starts from topological edge weights — which
Theorem 1 guarantees are a conservative approximation — and only
*refines* toward exactness, so any refinement or characterization step
that crashes or times out can be skipped without ever producing an
optimistic answer.  This package turns that property into
infrastructure:

* :mod:`repro.resilience.policy` — the runtime :class:`Deadline` and
  the fixed retry schedule (backoff delays, quarantine threshold); the
  knobs themselves (deadline, per-task timeout, retries, refinement
  budget, fault plan) are :class:`~repro.api.AnalysisOptions` fields;
* :mod:`repro.resilience.degradation` — :class:`Degradation` records and
  the per-run :class:`DegradationLog`; every conservative fallback lands
  on ``result.degradations`` and in the :mod:`repro.obs` trace stream;
* :mod:`repro.resilience.executor` — :func:`run_resilient`,
  crash/timeout-tolerant parallel execution with retries, quarantine,
  and serial fallback;
* :mod:`repro.resilience.locking` — :class:`FileLock`, inter-process
  locking for shared cache directories;
* :mod:`repro.resilience.faultinject` — deterministic
  :class:`FaultPlan` injection (worker crashes, timeouts, exceptions,
  cache corruption) so all of the above is testable;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, the
  closed/open/half-open failure detector the server wraps around
  kernel evaluation: while open, requests are answered from the
  conservative topological-bound path instead of retrying a failing
  backend.

Typical use::

    from repro.api import AnalysisOptions, AnalysisSession

    session = AnalysisSession.from_file(
        "design.v",
        options=AnalysisOptions(jobs=4, deadline=30.0, module_timeout=5.0),
    )
    result = session.hierarchical()
    for d in result.degradations:   # every conservative fallback taken
        print(d)
"""

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.degradation import Degradation, DegradationLog
from repro.resilience.executor import TaskOutcome, run_resilient
from repro.resilience.faultinject import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    execute_directive,
    parse_fault_spec,
)
from repro.resilience.locking import HAVE_FCNTL, FileLock
from repro.resilience.policy import Deadline, DeadlineExceeded

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "Degradation",
    "DegradationLog",
    "FaultPlan",
    "FaultRule",
    "FileLock",
    "HAVE_FCNTL",
    "InjectedFault",
    "TaskOutcome",
    "execute_directive",
    "parse_fault_spec",
    "run_resilient",
]
