"""Timing wrappers that measure each layer of the program from outside.

The ledger never edits the program: :func:`install` replaces public
functions and methods of each layer with wrappers that time the call and
record it on a per-thread span stack.  A wrapper is installed where the
caller looks the name up — on the class for methods, on the defining
module for functions that callers import at call time, and on the
importing module for a name bound with ``from x import y`` at import
time (``repro.kernel.design.propagate_batch``).  Install before any app
or analyzer is built: the request coalescer captures ``evaluate_rows``
when it is constructed.

A span's *self time* is its duration minus the time its child spans
cover on the same thread.  Totals (calls, seconds, self seconds) are
kept per span name for every call; individual spans are kept for the
Chrome trace only up to ``SPAN_CAP`` per name and thread, so hot
functions such as ``add_clause`` cost a counter update, not a record.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import re
import threading
import time
from collections import defaultdict

#: Spans of one served request share the id of its ``handle`` span.
REQUEST_ROOT = "server.app.handle"
#: Spans kept for the Chrome trace per name and thread; totals count all.
SPAN_CAP = 500

_TRACE_ID = re.compile(rb'"trace_id": "([^"]+)"')


class _ThreadState:
    __slots__ = ("tid", "stack", "totals", "spans", "kept")

    def __init__(self, tid: int):
        self.tid = tid
        #: Open frames: [name, start, child_seconds, span_id, parent_id, request_id].
        self.stack: list[list] = []
        #: name -> [calls, seconds, self_seconds]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.kept: dict[str, int] = defaultdict(int)


class Ledger:
    """In-memory span recorder shared by every wrapper in one process."""

    def __init__(self):
        # Span ids stay unique across the processes of one traced run.
        self._ids = itertools.count(os.getpid() * 10_000_000 + 1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: Counters read at layer boundaries (solver stats, result fields).
        self.counts: dict[str, float] = defaultdict(float)
        #: Served request id -> seconds inside ``TimingServerApp.handle``.
        self.handle_seconds: dict[str, float] = {}
        #: (batch id, seconds) per ``RequestCoalescer.submit`` call.
        self.submits: list[tuple[str, float]] = []
        #: Batch id -> seconds of the ``evaluate_rows`` call serving it.
        self.batch_seconds: dict[str, float] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState(threading.get_ident())
            with self._lock:
                self._threads.append(state)
        return state

    def enter(self, name: str) -> list:
        stack = self._state().stack
        span_id = next(self._ids)
        if stack:
            parent = stack[-1]
            frame = [name, 0.0, 0.0, span_id, parent[3], parent[5]]
        else:
            request = span_id if name == REQUEST_ROOT else 0
            frame = [name, 0.0, 0.0, span_id, 0, request]
        stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        state = self._state()
        stack = state.stack
        stack.pop()
        name, start, children = frame[0], frame[1], frame[2]
        seconds = end - start
        if stack:
            stack[-1][2] += seconds
        total = state.totals.get(name)
        if total is None:
            total = state.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += seconds
        total[2] += seconds - children
        if state.kept[name] < SPAN_CAP:
            state.kept[name] += 1
            state.spans.append(
                (name, start, seconds, frame[3], frame[4], frame[5], state.tid)
            )
        return seconds

    def span(self, name: str):
        """Context manager recording one span from the benchmark's code."""
        return _Span(self, name)

    def count(self, name: str, n: float) -> None:
        """Add ``n`` to a boundary counter (server threads share them)."""
        with self._lock:
            self.counts[name] += n

    def dump(self) -> dict:
        """JSON-ready totals, counters and kept spans of every thread."""
        totals: dict[str, list] = {}
        spans: list[tuple] = []
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            _add_totals(totals, state.totals)
            spans.extend(state.spans)
        wait = sum(
            max(0.0, seconds - self.batch_seconds.get(batch, 0.0))
            for batch, seconds in self.submits
        )
        counts = dict(self.counts)
        if self.submits:
            counts["server.coalescer.wait_s"] = wait
        return {
            "pid": os.getpid(),
            "totals": totals,
            "counts": counts,
            "handle_seconds": self.handle_seconds,
            "spans": spans,
        }


class _Span:
    __slots__ = ("ledger", "name", "frame")

    def __init__(self, ledger: Ledger, name: str):
        self.ledger, self.name = ledger, name

    def __enter__(self):
        self.frame = self.ledger.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.ledger.exit(self.frame)


def _add_totals(into: dict, totals: dict) -> None:
    for name, (calls, seconds, own) in totals.items():
        merged = into.setdefault(name, [0, 0.0, 0.0])
        merged[0] += calls
        merged[1] += seconds
        merged[2] += own


# ------------------------------------------------------------------ probes
# A probe reads a public counter at the layer boundary: it is called with
# the ledger and the call's arguments before the call, and returns a
# function taking (result, seconds) to run after it.


def _solve_probe(ledger, args, kwargs):
    stats = args[0].solver_stats
    before = (stats["decisions"], stats["conflicts"], stats["propagations"])

    def done(_result, _seconds):
        ledger.count("sat.decisions", stats["decisions"] - before[0])
        ledger.count("sat.conflicts", stats["conflicts"] - before[1])
        ledger.count("sat.propagations", stats["propagations"] - before[2])

    return done


def _propagate_probe(ledger, args, kwargs):
    def done(_result, _seconds):
        rows = args[1] if len(args) > 1 else kwargs["rows"]
        ledger.count("kernel.propagate.rows", len(rows))

    return done


def _demand_probe(ledger, args, kwargs):
    def done(result, _seconds):
        ledger.count("core.demand.checks", result.refinement_checks)
        ledger.count("core.demand.accepted", result.refinements)
        ledger.count("core.demand.refined_edges", len(result.refined_weights))
        ledger.count("core.demand.sta_passes", result.sta_passes)

    return done


def _handle_probe(ledger, args, kwargs):
    def done(result, seconds):
        match = _TRACE_ID.search(result[2])
        if match:
            ledger.handle_seconds[match.group(1).decode()] = seconds

    return done


def _submit_probe(ledger, args, kwargs):
    def done(outcome, seconds):
        ledger.submits.append((outcome.batch_id, seconds))

    return done


def _evaluate_rows_probe(ledger, args, kwargs):
    # The coalescer's flusher binds the batch id as the thread's trace
    # context around this call.
    tracer = kwargs.get("tracer")
    batch = tracer.current_trace_id() if tracer is not None else ""

    def done(_result, seconds):
        if batch:
            ledger.batch_seconds[batch] = seconds

    return done


#: (span name, module, class or None, attribute, probe).  The module of a
#: function is where its callers look the name up.
TARGETS = (
    ("parsers.verilog", "repro.parsers.verilog", None, "read_verilog", None),
    ("netlist.add_input", "repro.netlist.hierarchy", "HierDesign",
     "add_input", None),
    ("netlist.validate", "repro.netlist.hierarchy", "HierDesign",
     "validate", None),
    ("netlist.net_drivers", "repro.netlist.hierarchy", "HierDesign",
     "net_drivers", None),
    ("netlist.flatten", "repro.netlist.hierarchy", "HierDesign",
     "flatten", None),
    ("core.xbd0.functional_delay", "repro.core.xbd0", "StabilityAnalyzer",
     "functional_delay", None),
    ("core.xbd0.stable_at", "repro.core.xbd0", "StabilityAnalyzer",
     "stable_at", None),
    ("core.xbd0.stability_pair", "repro.core.xbd0", "StabilityAnalyzer",
     "stability_pair", None),
    ("sat.add_clause", "repro.sat.incremental", "IncrementalSolver",
     "add_clause", None),
    ("sat.solve", "repro.sat.incremental", "IncrementalSolver", "solve",
     _solve_probe),
    ("core.required.characterize_output", "repro.core.required", None,
     "characterize_output", None),
    ("core.hier.analyze", "repro.core.hier", "HierarchicalAnalyzer",
     "analyze", None),
    ("core.hier.analyze_batch", "repro.core.hier", "HierarchicalAnalyzer",
     "analyze_batch", None),
    ("core.hier.compile", "repro.core.hier", "HierarchicalAnalyzer",
     "compile", None),
    ("kernel.compile_design", "repro.kernel.plan", None, "compile_design",
     None),
    ("kernel.propagate", "repro.kernel.design", None, "propagate_batch",
     _propagate_probe),
    ("kernel.propagate", "repro.kernel.execute", None, "propagate_batch",
     _propagate_probe),
    ("core.demand.init", "repro.core.demand", "DemandDrivenAnalyzer",
     "__init__", None),
    ("core.demand.analyze", "repro.core.demand", "DemandDrivenAnalyzer",
     "analyze", _demand_probe),
    ("server.app.handle", "repro.server.app", "TimingServerApp", "handle",
     _handle_probe),
    ("server.admission.try_enter", "repro.server.app", "AdmissionGate",
     "try_enter", None),
    ("server.coalescer.submit", "repro.server.coalescer",
     "RequestCoalescer", "submit", _submit_probe),
    ("server.registry.register_source", "repro.server.registry",
     "DesignRegistry", "register_source", None),
    ("server.registry.evaluate_rows", "repro.server.registry",
     "RegisteredDesign", "evaluate_rows", _evaluate_rows_probe),
)

#: Every span name the wrappers record.
SPAN_NAMES = tuple(dict.fromkeys(t[0] for t in TARGETS))


def _wrap(ledger: Ledger, name: str, original, probe):
    enter, exit_ = ledger.enter, ledger.exit

    if probe is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                exit_(frame)
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            done = probe(ledger, args, kwargs)
            frame = enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = exit_(frame)
            done(result, seconds)
            return result

    return wrapper


def install(ledger: Ledger) -> None:
    """Wrap every layer boundary in :data:`TARGETS` (once per process)."""
    for name, module_name, class_name, attr, probe in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        setattr(owner, attr, _wrap(ledger, name, getattr(owner, attr), probe))


# ------------------------------------------------------------ per-layer view
def merge(dumps: list[dict]) -> dict:
    """Totals and counters summed over the dumps of several processes."""
    totals: dict[str, list] = {}
    counts: dict[str, float] = defaultdict(float)
    for dump in dumps:
        _add_totals(totals, dump["totals"])
        for name, value in dump["counts"].items():
            counts[name] += value
    return {"totals": totals, "counts": dict(counts)}


def per_layer(merged: dict, client: dict) -> dict[str, float]:
    """The per-layer metrics from merged totals plus client-side numbers.

    ``client`` carries what only the load generator sees: per-request
    HTTP overhead (client latency minus ``handle`` time) and generator
    lag.  Every metric is present on every workload; a layer the
    workload does not touch reads 0.
    """
    totals, counts = merged["totals"], merged["counts"]

    def calls(name):
        return float(totals.get(name, (0, 0.0, 0.0))[0])

    def seconds(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    checks = counts.get("core.demand.checks", 0.0)
    return {
        "parsers.verilog.s": seconds("parsers.verilog"),
        "parsers.verilog.calls": calls("parsers.verilog"),
        "netlist.add_input.s": seconds("netlist.add_input"),
        "netlist.validate.s": seconds("netlist.validate"),
        "netlist.net_drivers.s": seconds("netlist.net_drivers"),
        "netlist.net_drivers.calls": calls("netlist.net_drivers"),
        "core.xbd0.stability_pair.s": seconds("core.xbd0.stability_pair"),
        "core.xbd0.stable_at.calls": calls("core.xbd0.stable_at"),
        "core.xbd0.stable_at.self_s": own("core.xbd0.stable_at"),
        "sat.add_clause.calls": calls("sat.add_clause"),
        "sat.add_clause.s": seconds("sat.add_clause"),
        "sat.solve.calls": calls("sat.solve"),
        "sat.solve.s": seconds("sat.solve"),
        "sat.decisions": counts.get("sat.decisions", 0.0),
        "sat.conflicts": counts.get("sat.conflicts", 0.0),
        "sat.propagations": counts.get("sat.propagations", 0.0),
        "core.required.characterize_output.calls":
            calls("core.required.characterize_output"),
        "core.required.characterize_output.self_s":
            own("core.required.characterize_output"),
        "core.hier.analyze.self_s": own("core.hier.analyze"),
        "core.hier.analyze_batch.self_s": own("core.hier.analyze_batch"),
        "core.hier.compile.s": seconds("core.hier.compile"),
        "kernel.compile_design.s": seconds("kernel.compile_design"),
        "kernel.propagate.calls": calls("kernel.propagate"),
        "kernel.propagate.rows": counts.get("kernel.propagate.rows", 0.0),
        "kernel.propagate.s": seconds("kernel.propagate"),
        "core.demand.analyze.self_s": own("core.demand.analyze"),
        "core.demand.checks": checks,
        "core.demand.refined_edges":
            counts.get("core.demand.refined_edges", 0.0),
        "core.demand.useful_frac": (
            counts.get("core.demand.accepted", 0.0) / checks if checks else 0.0
        ),
        "core.demand.sta_passes": counts.get("core.demand.sta_passes", 0.0),
        "server.http.s": client.get("http_s", 0.0),
        "server.app.self_s": own("server.app.handle"),
        "server.admission.wait_s": seconds("server.admission.try_enter"),
        "server.coalescer.wait_s": counts.get("server.coalescer.wait_s", 0.0),
        "server.coalescer.batch_width":
            counts.get("server.coalescer.batch_width", 0.0),
        "server.registry.register_source.s":
            seconds("server.registry.register_source"),
        "server.registry.evaluate_rows.s":
            seconds("server.registry.evaluate_rows"),
        "gen.lag_p99_ms": client.get("lag_p99_ms", 0.0),
    }


def chrome_trace(dumps: list[dict]) -> dict:
    """Kept spans of several processes as one Chrome trace document.

    Timestamps come from ``time.perf_counter`` (the system-wide monotonic
    clock on Linux), so spans of the load generator and of the server
    line up on one time axis.
    """
    events = []
    starts = [s[1] for d in dumps for s in d["spans"]]
    base = min(starts) if starts else 0.0
    for dump in dumps:
        for name, start, seconds, span_id, parent, request, tid in dump["spans"]:
            args = {"span_id": span_id, "layer": name.rsplit(".", 1)[0]}
            if parent:
                args["parent_id"] = parent
            if request:
                args["trace_id"] = f"request-{request}"
            events.append(
                {
                    "name": name,
                    "cat": args["layer"],
                    "ph": "X",
                    "ts": round((start - base) * 1e6, 3),
                    "dur": round(seconds * 1e6, 3),
                    "pid": dump["pid"],
                    "tid": tid,
                    "args": args,
                }
            )
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
