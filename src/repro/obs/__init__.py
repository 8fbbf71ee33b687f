"""Observability: structured tracing and metrics for the analysis pipeline.

The paper's demand-driven refinement is motivated entirely by *where
time goes*; this package makes that measurable.  A
:class:`~repro.obs.trace.Tracer` threads through every analysis layer
(:mod:`repro.core.xbd0`, :mod:`repro.core.required`,
:mod:`repro.core.hier`, :mod:`repro.core.demand`,
:mod:`repro.library`) and emits typed span/event records —
characterize-module, tuple-prune, sat-call, refinement-step, cache
hit/miss — with wall-time and counter payloads, fanned out to pluggable
sinks (in-memory ring buffer, JSONL file, aggregate summary).

Tracing is strictly opt-in: the default :data:`NULL_TRACER` makes every
instrumentation site a no-op and analyzer outputs are identical with
tracing on or off.

On top of the sinks sit standard-format exporters
(:func:`write_chrome_trace` for chrome://tracing / Perfetto,
:func:`render_prometheus` for the Prometheus text exposition) and the
conservatism audit (:class:`ForensicsReport`), which attributes the
topological-vs-refined arrival gap per primary output to the ordered
refinements that closed it.

The production-serving layer adds three more pieces: the flight
recorder (:class:`FlightRecorder` — bounded per-request history behind
``GET /debug/requests``), SLO burn-rate tracking (:class:`SloTracker`
— multi-window error-budget math behind ``GET /healthz/slo``), and a
sampling profiler (:class:`SamplingProfiler` — collapsed-stack
flamegraph output behind ``GET /debug/profile``).  All three, like the
tracer and metrics registry, are safe to share across the server's
handler threads.

Typical use::

    from repro.api import AnalysisOptions
    from repro.obs import Tracer, RingBufferSink

    sink = RingBufferSink()
    tracer = Tracer(sinks=[sink])
    options = AnalysisOptions(tracer=tracer)
    HierarchicalAnalyzer(design, options=options).analyze()
    print(tracer.summary())          # per-phase time/counter breakdown
"""

from repro.obs.export import (
    chrome_trace_events,
    prometheus_name,
    render_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.flight import FlightRecord, FlightRecorder, RequestContext
from repro.obs.forensics import (
    ForensicsReport,
    OutputForensics,
    RefinementEvent,
)
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
)
from repro.obs.profiler import SamplingProfiler
from repro.obs.slo import SloObjective, SloTracker, parse_slo_spec
from repro.obs.sinks import (
    JsonlRecords,
    JsonlSink,
    RingBufferSink,
    SummarySink,
    read_jsonl,
)
from repro.obs.trace import (
    NULL_TRACER,
    PHASES,
    TraceRecord,
    Tracer,
    ensure_tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "FlightRecord",
    "FlightRecorder",
    "ForensicsReport",
    "Gauge",
    "Histogram",
    "JsonlRecords",
    "JsonlSink",
    "Metrics",
    "NULL_TRACER",
    "OutputForensics",
    "PHASES",
    "RefinementEvent",
    "RequestContext",
    "RingBufferSink",
    "SamplingProfiler",
    "SloObjective",
    "SloTracker",
    "SummarySink",
    "TraceRecord",
    "Tracer",
    "chrome_trace_events",
    "ensure_tracer",
    "parse_slo_spec",
    "prometheus_name",
    "read_jsonl",
    "render_prometheus",
    "write_chrome_trace",
    "write_prometheus",
]
