#!/usr/bin/env python
"""Offline analysis of Chrome trace files written by the tracer.

The server (``GET /trace``), the CLI's ``--export-trace``, and
:func:`repro.obs.export.write_chrome_trace` all emit the Chrome
trace-event JSON format.  This tool reads such a file (or the JSONL
form written by :class:`repro.obs.sinks.JsonlSink`) and answers the
questions a latency investigation actually asks:

* **phase latency** — per record name and per phase: count, total,
  p50/p90/p99, max.  Percentiles over span durations, not averages,
  because tail latency is what pages you.
* **coalescing efficiency** — from the ``coalescer.flush`` spans: batch
  count, scenarios served, mean batch size, the fraction of requests
  that shared a kernel call, and kernel seconds per scenario.
* **request attribution** — ``--trace-id req-...`` resolves one
  request: the batch that served it and every span recorded under that
  batch's context.
* **critical path** — for the longest span (or ``--span NAME``), the
  chain of child spans (via ``parent_id``) that dominates its wall
  time, printed as an indented tree.

Usage::

    python tools/trace_analyze.py trace.json
    python tools/trace_analyze.py trace.json --phases --coalescing
    python tools/trace_analyze.py trace.json --trace-id req-00000042
    python tools/trace_analyze.py trace.jsonl --critical-path

With no selection flags, every section is printed.  Exit codes:
0 — analyzed; 2 — unreadable or empty trace.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def load_events(path: Path) -> list[dict]:
    """Trace events from a Chrome-trace JSON file or a JSONL trace.

    Returns normalized dicts: ``name``, ``cat``, ``ts``/``dur`` in
    microseconds, and the exporter's ``args`` (depth, span/parent ids,
    trace_id, attributes).
    """
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        events = doc.get("traceEvents")
        if events is None:
            raise ValueError(f"{path}: no traceEvents key")
        return events
    # JSONL: one TraceRecord per line; adapt to the event shape.
    events = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError:
            continue
        args = dict(raw.get("attrs", {}))
        args["depth"] = raw.get("depth", 0)
        for key in ("span_id", "parent_id", "trace_id"):
            if raw.get(key):
                args[key] = raw[key]
        if raw.get("phase"):
            args["phase"] = raw["phase"]
        events.append(
            {
                "name": raw.get("name", "?"),
                "cat": raw.get("phase") or raw.get("kind", "event"),
                "ph": "X" if raw.get("kind") == "span" else "i",
                "ts": round(float(raw.get("t", 0.0)) * 1e6, 3),
                "dur": round(float(raw.get("seconds", 0.0)) * 1e6, 3),
                "args": args,
            }
        )
    return events


def spans_of(events: list[dict]) -> list[dict]:
    return [e for e in events if e.get("ph") == "X"]


# ------------------------------------------------------------------ sections
def report_phases(events: list[dict]) -> str:
    """Per-name and per-phase duration percentiles."""
    by_name: dict[str, list[float]] = defaultdict(list)
    by_phase: dict[str, list[float]] = defaultdict(list)
    for event in spans_of(events):
        ms = float(event.get("dur", 0.0)) / 1e3
        by_name[event.get("name", "?")].append(ms)
        phase = event.get("args", {}).get("phase")
        if phase:
            by_phase[str(phase)].append(ms)
    if not by_name:
        return "phase latency: no spans in trace\n"
    lines = ["phase latency (span durations, ms)", ""]
    header = (
        f"  {'name':<28} {'count':>6} {'total':>9} {'p50':>8} "
        f"{'p90':>8} {'p99':>8} {'max':>8}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))

    def rows(table: dict[str, list[float]]):
        for name in sorted(table, key=lambda n: -sum(table[n])):
            vals = table[name]
            lines.append(
                f"  {name:<28} {len(vals):>6} {sum(vals):>9.2f} "
                f"{percentile(vals, 50):>8.3f} {percentile(vals, 90):>8.3f} "
                f"{percentile(vals, 99):>8.3f} {max(vals):>8.3f}"
            )

    rows(by_name)
    if by_phase:
        lines.append("")
        lines.append("  by phase:")
        rows(by_phase)
    return "\n".join(lines) + "\n"


def report_coalescing(events: list[dict]) -> str:
    """Batch-size and efficiency stats from coalescer.flush spans."""
    flushes = [
        e for e in spans_of(events) if e.get("name") == "coalescer.flush"
    ]
    if not flushes:
        return (
            "coalescing: no coalescer.flush spans in trace (server not "
            "under concurrent load, or an older trace format)\n"
        )
    sizes = []
    kernel_ms = []
    requests = 0
    shared = 0
    for event in flushes:
        args = event.get("args", {})
        size = int(args.get("batch_size", 0) or 0)
        sizes.append(size)
        requests += size
        if size > 1:
            shared += size
        kernel_ms.append(float(event.get("dur", 0.0)) / 1e3)
    lines = [
        "coalescing efficiency",
        "",
        f"  batches            : {len(flushes)}",
        f"  scenarios served   : {requests}",
        f"  mean batch size    : {requests / len(flushes):.2f}",
        f"  max batch size     : {max(sizes)}",
        f"  coalesced fraction : "
        f"{(shared / requests if requests else 0.0):.1%} of requests "
        "shared a kernel call",
        f"  kernel ms / batch  : p50 {percentile(kernel_ms, 50):.3f}  "
        f"p99 {percentile(kernel_ms, 99):.3f}",
        f"  kernel ms / request: "
        f"{(sum(kernel_ms) / requests if requests else 0.0):.3f}",
    ]
    return "\n".join(lines) + "\n"


def report_request(events: list[dict], trace_id: str) -> str:
    """Resolve one request id to its batch and kernel spans."""
    lines = [f"attribution for {trace_id}", ""]
    mine = [
        e
        for e in events
        if e.get("args", {}).get("trace_id") == trace_id
    ]
    batches = [
        e
        for e in spans_of(events)
        if e.get("name") == "coalescer.flush"
        and trace_id in (e.get("args", {}).get("requests") or ())
    ]
    if not mine and not batches:
        return (
            f"attribution for {trace_id}: no records carry this id "
            "(trace rotated, or the request predates the trace)\n"
        )
    for event in sorted(mine, key=lambda e: e.get("ts", 0.0)):
        lines.append(
            f"  [{event.get('ts', 0.0) / 1e3:10.3f}ms] "
            f"{event.get('name', '?'):<28} "
            f"{float(event.get('dur', 0.0)) / 1e3:8.3f}ms"
        )
    for batch in batches:
        args = batch.get("args", {})
        batch_id = args.get("batch_id", "?")
        lines.append(
            f"  served by {batch_id} "
            f"(batch_size={args.get('batch_size', '?')}, "
            f"kernel {float(batch.get('dur', 0.0)) / 1e3:.3f}ms)"
        )
        inside = [
            e
            for e in events
            if e.get("args", {}).get("trace_id") == batch_id
        ]
        for event in sorted(inside, key=lambda e: e.get("ts", 0.0)):
            lines.append(
                f"    {event.get('name', '?'):<26} "
                f"{float(event.get('dur', 0.0)) / 1e3:8.3f}ms"
            )
    return "\n".join(lines) + "\n"


def report_critical_path(events: list[dict], root_name: str | None) -> str:
    """Child-span tree under the longest span (or ``root_name``)."""
    spans = [e for e in spans_of(events) if e.get("args", {}).get("span_id")]
    if not spans:
        return (
            "critical path: no span ids in trace (older trace format)\n"
        )
    candidates = (
        [s for s in spans if s.get("name") == root_name]
        if root_name
        else spans
    )
    if not candidates:
        return f"critical path: no span named {root_name!r}\n"
    root = max(candidates, key=lambda s: float(s.get("dur", 0.0)))
    children: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        parent = int(span["args"].get("parent_id", 0) or 0)
        if parent:
            children[parent].append(span)
    lines = ["critical path", ""]

    def walk(span: dict, indent: int) -> None:
        dur_ms = float(span.get("dur", 0.0)) / 1e3
        lines.append(
            f"  {'  ' * indent}{span.get('name', '?')}  {dur_ms:.3f}ms"
        )
        kids = sorted(
            children.get(int(span["args"]["span_id"]), []),
            key=lambda s: -float(s.get("dur", 0.0)),
        )
        own = dur_ms - sum(float(k.get("dur", 0.0)) / 1e3 for k in kids)
        for kid in kids:
            walk(kid, indent + 1)
        if kids and own > 0.0005:
            lines.append(f"  {'  ' * (indent + 1)}(self)  {own:.3f}ms")

    walk(root, 0)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------- main
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "analyze a Chrome trace (or JSONL trace) written by the "
            "timing server / CLI: phase percentiles, coalescing "
            "efficiency, request attribution, critical paths"
        )
    )
    parser.add_argument("trace", type=Path, help="trace .json or .jsonl")
    parser.add_argument(
        "--phases",
        action="store_true",
        help="per-name/per-phase duration percentiles",
    )
    parser.add_argument(
        "--coalescing",
        action="store_true",
        help="batch-size and efficiency stats from coalescer.flush spans",
    )
    parser.add_argument(
        "--trace-id",
        metavar="REQ",
        help="resolve one request id to its batch and kernel spans",
    )
    parser.add_argument(
        "--critical-path",
        action="store_true",
        help="child-span tree under the longest span",
    )
    parser.add_argument(
        "--span",
        metavar="NAME",
        help="root the critical path at the longest span named NAME",
    )
    args = parser.parse_args(argv)

    try:
        events = load_events(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not events:
        print("error: trace contains no events", file=sys.stderr)
        return 2

    wants_all = not (
        args.phases
        or args.coalescing
        or args.trace_id
        or args.critical_path
        or args.span
    )
    sections = []
    if wants_all or args.phases:
        sections.append(report_phases(events))
    if wants_all or args.coalescing:
        sections.append(report_coalescing(events))
    if args.trace_id:
        sections.append(report_request(events, args.trace_id))
    if wants_all or args.critical_path or args.span:
        sections.append(report_critical_path(events, args.span))
    print("\n".join(sections).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
