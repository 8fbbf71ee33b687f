"""Analysis-as-a-service: a long-lived timing server.

The hierarchical flow of the paper — pre-characterized module models,
repeatedly queried by an integrator — is a *service* shape: models and
compiled designs are expensive to build and cheap to query, so the
natural deployment keeps them hot in one process and converts request
concurrency into kernel batch throughput.  This package is that daemon:

* :class:`~repro.server.registry.DesignRegistry` — compiled
  :class:`~repro.kernel.design.CompiledDesign` handles cached by
  netlist content hash, LRU-bounded, sharing one model library;
* :class:`~repro.server.coalescer.RequestCoalescer` — in-flight
  single-scenario requests for one design merged into single
  :func:`~repro.kernel.execute.propagate_batch` calls (flush on
  max-batch / max-wait / quiet-period), with per-request
  :class:`~repro.resilience.policy.Deadline` enforcement and
  504-with-:class:`~repro.resilience.degradation.Degradation` rejects;
* :class:`~repro.server.app.TimingServerApp` — the JSON-over-HTTP
  surface (``/analyze``, ``/batch``, ``/forensics``, ``/designs``,
  ``/healthz``, ``/metrics``, ``/trace``), transport-agnostic and
  directly unit-testable;
* :class:`~repro.server.http.TimingHTTPServer` — the zero-dependency
  stdlib threaded HTTP shell.

The app is overload-proof by construction: an
:class:`~repro.server.app.AdmissionGate` bounds in-flight work and
sheds the rest with structured 503s, a per-design
:class:`~repro.resilience.breaker.CircuitBreaker` swaps a failing
kernel path for the conservative topological bound (sound by
Theorem 1, responses marked ``degraded``), and ``begin_drain`` /
``drain`` give SIGTERM a clean exit path with readiness reported on
``/healthz/ready``.

Start one from the CLI (``repro-sta serve --preload design.v``), with
``python -m repro.server``, or in-process::

    from repro.server import TimingServerApp, start_server

    app = TimingServerApp()
    app.registry.register_file("design.v")
    server, thread = start_server(app, port=0)
    print(server.url)  # ... requests ... then: server.shutdown()
"""

from repro.server.app import AdmissionGate, RequestError, TimingServerApp
from repro.server.coalescer import Outcome, RequestCoalescer
from repro.server.http import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    TimingHTTPServer,
    start_server,
)
from repro.server.registry import (
    DegradedRow,
    DesignRegistry,
    RegisteredDesign,
    UnknownDesign,
    content_id,
)

__all__ = [
    "AdmissionGate",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DegradedRow",
    "DesignRegistry",
    "Outcome",
    "RegisteredDesign",
    "RequestCoalescer",
    "RequestError",
    "TimingHTTPServer",
    "TimingServerApp",
    "UnknownDesign",
    "content_id",
    "start_server",
]
