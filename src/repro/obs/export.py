"""Standard-format exporters for traces and metrics.

Two writers turn the observability layer's in-process records into
formats existing tooling already understands, so a run can be inspected
without any repo-specific viewer:

* :func:`write_chrome_trace` — the Chrome trace-event JSON format
  (``chrome://tracing``, https://ui.perfetto.dev).  Spans become ``"X"``
  *complete* events with microsecond timestamps and durations; point
  events become instants; measured events (a nonzero ``seconds``
  payload) are rendered as complete events covering the interval they
  timed.  Record attributes ride along in ``args``.
* :func:`render_prometheus` / :func:`write_prometheus` — the Prometheus
  text exposition format for a :class:`~repro.obs.metrics.Metrics`
  registry: counters and gauges one sample each, histograms as proper
  ``histogram`` families with cumulative ``le`` buckets (the fixed
  log-spaced :data:`~repro.obs.metrics.BUCKET_BOUNDS`) plus ``_sum``,
  ``_count``, and ``_min``/``_max`` gauges — scrapeable latency
  quantiles, not just averages.

Both are fed from what the tracer already collects — a
:class:`~repro.obs.sinks.RingBufferSink`, a list of
:class:`~repro.obs.trace.TraceRecord`, or a JSONL trace file written by
:class:`~repro.obs.sinks.JsonlSink` — so instrumented analyzers need no
new wiring to become exportable.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import TextIO

from repro.obs.metrics import NEG_INF, POS_INF, Metrics
from repro.obs.trace import TraceRecord

#: ``pid``/``tid`` used for every exported event: one analysis run is
#: one process with one logical track.
TRACE_PID = 1
TRACE_TID = 1

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _json_safe(value):
    """Non-finite floats as strings, so the trace stays strict JSON
    (``json.dumps`` would otherwise emit ``-Infinity`` tokens that
    Perfetto and other strict parsers reject)."""
    if isinstance(value, float) and (
        value != value or value in (NEG_INF, POS_INF)
    ):
        return "nan" if value != value else (
            "inf" if value > 0 else "-inf"
        )
    return value


def _coerce_records(source) -> list[TraceRecord]:
    """Records from a sink, an iterable of records, or a JSONL path."""
    records = getattr(source, "records", None)
    if callable(records):  # RingBufferSink and friends
        return list(records())
    if isinstance(source, (str, os.PathLike)):
        from repro.obs.sinks import read_jsonl

        return list(read_jsonl(source))
    return list(source)


def chrome_trace_events(source) -> list[dict]:
    """Chrome trace-event dicts for the given records, sorted by time.

    Every event carries the keys the trace-event schema requires
    (``name``, ``ph``, ``ts``, ``pid``, ``tid``) with non-negative
    microsecond timestamps in non-decreasing order.  Spans and measured
    events are ``"X"`` complete events; zero-duration events are ``"i"``
    instants.
    """
    events = []
    for record in _coerce_records(source):
        seconds = max(0.0, float(record.seconds))
        start = max(0.0, float(record.t) - (
            seconds if record.kind == "event" else 0.0
        ))
        event = {
            "name": record.name,
            "cat": record.phase or record.kind,
            "ts": round(start * 1e6, 3),
            "pid": TRACE_PID,
            "tid": TRACE_TID,
        }
        if record.kind == "span" or seconds > 0.0:
            event["ph"] = "X"
            event["dur"] = round(seconds * 1e6, 3)
        else:
            event["ph"] = "i"
            event["s"] = "t"  # thread-scoped instant
        args = {
            k: _json_safe(v) for k, v in dict(record.attrs).items()
        }
        args["depth"] = record.depth
        if record.phase is not None:
            args["phase"] = record.phase
        if record.span_id:
            args["span_id"] = record.span_id
        if record.parent_id:
            args["parent_id"] = record.parent_id
        if record.trace_id:
            args["trace_id"] = record.trace_id
        event["args"] = args
        events.append(event)
    events.sort(key=lambda e: e["ts"])
    return events


def write_chrome_trace(
    target: str | os.PathLike | TextIO, source, metrics: Metrics | None = None
) -> int:
    """Write a Chrome-trace JSON file; returns the event count.

    ``source`` is anything :func:`chrome_trace_events` accepts.  When a
    ``metrics`` registry is given, its snapshot is attached under the
    top-level ``metrics`` key (ignored by viewers, handy for tooling).
    """
    events = chrome_trace_events(source)
    payload: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metrics is not None:
        payload["metrics"] = metrics.as_dict()
    text = json.dumps(payload, indent=1)
    if isinstance(target, (str, os.PathLike)):
        Path(target).write_text(text + "\n")
    else:
        target.write(text + "\n")
    return len(events)


def prometheus_name(name: str) -> str:
    """A metric name sanitized to the Prometheus grammar.

    Dots (the repo's namespacing convention) become underscores; any
    other illegal character does too, and a leading digit is prefixed.
    """
    clean = _PROM_BAD.sub("_", name)
    if not clean or clean[0].isdigit():
        clean = "_" + clean
    return clean


def render_prometheus(metrics: Metrics) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    Deterministically ordered: counters, then gauges, then histograms,
    each sorted by name.  Histograms render as ``histogram`` families —
    cumulative ``_bucket{le="..."}`` samples over the fixed log-spaced
    :data:`~repro.obs.metrics.BUCKET_BOUNDS` ending at ``+Inf``, plus
    ``_sum`` and ``_count`` — with ``_min``/``_max`` gauges when they
    have observations.  Snapshots are taken under the registry lock, so
    scraping during concurrent updates is safe.
    """
    counters, gauges, histograms = metrics.snapshot()
    lines: list[str] = []
    for c in counters:
        prom = prometheus_name(c.name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {c.value:g}")
    for g in gauges:
        prom = prometheus_name(g.name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {g.value:g}")
    for h in histograms:
        prom = prometheus_name(h.name)
        lines.append(f"# TYPE {prom} histogram")
        for bound, cumulative in h.cumulative_buckets():
            le = "+Inf" if bound == POS_INF else f"{bound:g}"
            lines.append(f'{prom}_bucket{{le="{le}"}} {cumulative}')
        lines.append(f"{prom}_sum {h.total:g}")
        lines.append(f"{prom}_count {h.count}")
        if h.count and h.minimum != POS_INF and h.maximum != NEG_INF:
            lines.append(f"# TYPE {prom}_min gauge")
            lines.append(f"{prom}_min {h.minimum:g}")
            lines.append(f"# TYPE {prom}_max gauge")
            lines.append(f"{prom}_max {h.maximum:g}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    target: str | os.PathLike | TextIO, metrics: Metrics
) -> int:
    """Write the registry as Prometheus text; returns the sample count."""
    text = render_prometheus(metrics)
    if isinstance(target, (str, os.PathLike)):
        Path(target).write_text(text)
    else:
        target.write(text)
    return sum(
        1
        for line in text.splitlines()
        if line and not line.startswith("#")
    )


__all__ = [
    "chrome_trace_events",
    "prometheus_name",
    "render_prometheus",
    "write_chrome_trace",
    "write_prometheus",
]
