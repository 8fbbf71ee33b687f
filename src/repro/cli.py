"""Command-line interface.

Usage (also exposed as ``python -m repro.cli``)::

    repro-sta report circuit.bench --arrival c_in=5
    repro-sta delay circuit.blif
    repro-sta demand design.v --scenarios arrivals.json
    repro-sta characterize circuit.bench -o circuit.timing.json
    repro-sta serve --preload design.v --port 8421
    repro-sta table1 | table2 | figures

``report`` prints a classic STA report plus the functional comparison;
``delay`` prints per-output XBD0 stable times; ``hier-report`` (two-step,
Section 3) and ``demand`` (demand-driven, Section 5) analyze
hierarchical Verilog designs (optionally over a JSON batch of arrival
scenarios via ``--scenarios``); ``forensics`` prints the conservatism
audit (topological vs refined arrival per output and the refinements
that closed the gap); ``sdc`` exports the refined pin pairs as SDC
exceptions; ``characterize`` writes a black-box timing library (see
:mod:`repro.core.ipblock`); ``serve`` runs the long-lived analysis
server (:mod:`repro.server`); the last three regenerate the paper's
tables and figures.

Every analysis command builds one :class:`~repro.api.AnalysisOptions`
from its flags (:func:`make_options`), runs through an
:class:`~repro.api.AnalysisSession` (``sdc`` hands its options to
:func:`~repro.core.sdc_export.export_design_sdc`), and registers only
the flags it reads.  Each takes the observability flags
``--trace/--profile/--trace-file`` plus the standard-format exporters
``--export-trace FILE.json`` (Chrome trace-event / Perfetto) and
``--export-metrics FILE.prom`` (Prometheus text exposition).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Sequence

from repro.api import AnalysisSession, load_circuit_file
from repro.core.ipblock import export_timing_library
from repro.errors import ReproError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.sta.report import timing_report


def package_version() -> str:
    """The package version, from pyproject.toml or installed metadata.

    A source-tree checkout reads ``pyproject.toml`` next to the package
    (authoritative even when a stale build is also importable); an
    installed package falls back to ``importlib.metadata``; the
    hard-coded ``repro.__version__`` is the last resort.
    """
    pyproject = Path(__file__).resolve().parents[2] / "pyproject.toml"
    if pyproject.is_file():
        try:
            import tomllib

            version = (
                tomllib.loads(pyproject.read_text())
                .get("project", {})
                .get("version")
            )
            if version:
                return str(version)
        except (OSError, ValueError):
            pass
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


class _Parser(argparse.ArgumentParser):
    """Argparse with the repo's error contract: every usage problem is
    a one-line ``error: ...`` on stderr and exit code 2 (no usage dump),
    matching how runtime :class:`~repro.errors.ReproError`\\ s surface."""

    def error(self, message: str):
        match = re.match(
            r"argument \S+: invalid choice: '([^']*)'(?= \(choose from)",
            message,
        )
        if match and self.prog == "repro-sta":
            message = (
                f"unknown command {match.group(1)!r} "
                f"(run 'repro-sta --help' for the command list)"
            )
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _int_in(low: int, high: int | None = None):
    """An argparse ``type``: an integer in ``[low, high]``, checked where
    the flag is parsed (one ``error:`` line, exit 2)."""

    bound = f">= {low}" if high is None else f"between {low} and {high}"

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(
                f"must be {bound}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _sample_rate(text: str) -> float:
    """``--sample-hz``: 0 (off) or a finite positive rate."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if value != 0.0 and not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be 0 (off) or a finite positive rate, got {text!r}"
        )
    return value


def load_circuit(path: str) -> Network:
    """Load a flat netlist by extension (.bench, .blif, or .v).

    Hierarchical Verilog files are flattened, under the file's stem,
    for the flat-analysis commands (use the library API for
    hierarchical analysis).
    """
    circuit = load_circuit_file(path)
    if isinstance(circuit, HierDesign):
        return circuit.flatten(name=Path(path).stem)
    return circuit


def parse_arrivals(
    pairs: list[str], inputs: Sequence[str]
) -> dict[str, float]:
    """Parse repeated ``--arrival name=time`` options.

    Names must be primary ``inputs`` of the circuit, and times finite
    numbers (``nan``/``inf``/``1e400`` are refused with the same check
    as scenario files).
    """
    from repro.scenarios.spec import clean_arrival

    out: dict[str, str] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ReproError(f"bad --arrival {pair!r}; expected name=time")
        out[name] = value
    arrival = clean_arrival(out, "--arrival")
    unknown = sorted(set(arrival) - set(inputs))
    if unknown:
        raise ReproError(f"--arrival names unknown input {unknown[0]!r}")
    return arrival


def load_scenarios(path: str, inputs: Sequence[str]):
    """Load ``--scenarios FILE`` through
    :func:`~repro.scenarios.spec.read_batch`: a
    :class:`~repro.scenarios.ScenarioFamily`, or the file's arrival
    mappings (see ``docs/SCENARIOS.md``).  Malformed files raise
    :class:`~repro.errors.ReproError`, which the CLI surfaces as a
    one-line ``error:`` with exit code 2.
    """
    import json

    from repro.scenarios.spec import read_batch

    file = Path(path)
    try:
        data = json.loads(file.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{file.name}: not valid JSON ({exc})") from None
    except UnicodeDecodeError:
        raise ReproError(f"{file.name}: not a text file") from None
    return read_batch(data, inputs, file.name)


def load_design(path: str) -> HierDesign:
    """Load a hierarchical Verilog design (.v) or raise ReproError."""
    if Path(path).suffix != ".v":
        raise ReproError(
            "hierarchical analysis expects a structural Verilog file"
        )
    circuit = load_circuit_file(path)
    if not isinstance(circuit, HierDesign):
        raise ReproError(
            "file holds a single flat module; use 'report' instead"
        )
    return circuit


def make_tracer(args: argparse.Namespace):
    """Build a tracer from the obs flags, else None.

    Any of ``--trace/--profile/--trace-file/--export-trace/
    --export-metrics`` enables tracing; ``None`` (all flags off, the
    default) keeps the zero-overhead null path everywhere and the
    command output byte-identical to untraced runs.
    """
    trace = getattr(args, "trace", False)
    profile = getattr(args, "profile", False)
    trace_file = getattr(args, "trace_file", None)
    export_trace = getattr(args, "export_trace", None)
    export_metrics = getattr(args, "export_metrics", None)
    if not (trace or profile or trace_file or export_trace
            or export_metrics):
        return None
    from repro.obs import JsonlSink, RingBufferSink, SummarySink, Tracer

    tracer = Tracer()
    if trace_file:
        tracer.add_sink(JsonlSink(trace_file))
    if profile:
        sink = SummarySink()
        tracer.add_sink(sink)
        tracer.profile_sink = sink
    if export_trace:
        sink = RingBufferSink(capacity=1 << 16)
        tracer.add_sink(sink)
        tracer.export_sink = sink
    return tracer


def finish_tracer(args: argparse.Namespace, tracer, stream=None) -> None:
    """Close sinks, print summaries, and write the export files."""
    if tracer is None:
        return
    tracer.close()
    stream = stream if stream is not None else sys.stdout
    if getattr(args, "trace", False) or getattr(args, "profile", False):
        print(tracer.summary(), file=stream)
    profile_sink = getattr(tracer, "profile_sink", None)
    if profile_sink is not None:
        print("", file=stream)
        print(profile_sink.render(), file=stream)
    trace_file = getattr(args, "trace_file", None)
    if trace_file:
        print(f"wrote trace to {trace_file}", file=sys.stderr)
    export_trace = getattr(args, "export_trace", None)
    if export_trace:
        from repro.obs import write_chrome_trace

        sink = getattr(tracer, "export_sink", None)
        count = write_chrome_trace(
            export_trace, sink if sink is not None else [],
            metrics=tracer.metrics,
        )
        print(
            f"wrote {count} trace events to {export_trace}",
            file=sys.stderr,
        )
    export_metrics = getattr(args, "export_metrics", None)
    if export_metrics:
        from repro.obs import write_prometheus

        count = write_prometheus(export_metrics, tracer.metrics)
        print(
            f"wrote {count} metric samples to {export_metrics}",
            file=sys.stderr,
        )


def make_options(args: argparse.Namespace, tracer=None):
    """Build an :class:`~repro.api.AnalysisOptions` from parsed flags.

    Consumes the circuit/cache/resilience option groups; ``--inject``
    specs are parsed into a :class:`~repro.resilience.FaultPlan`.
    """
    from repro.api import AnalysisOptions

    plan = None
    specs = getattr(args, "inject", None)
    if specs:
        from repro.resilience import FaultPlan, parse_fault_spec

        plan = FaultPlan([parse_fault_spec(s) for s in specs])
    try:
        return AnalysisOptions(
            jobs=getattr(args, "jobs", 1),
            cache_dir=getattr(args, "cache_dir", None),
            tracer=tracer,
            deadline=getattr(args, "deadline", None),
            module_timeout=getattr(args, "module_timeout", None),
            retries=getattr(args, "retries", 2),
            refine_budget=getattr(args, "refine_budget", None),
            fault_plan=plan,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None


def cmd_report(args: argparse.Namespace) -> int:
    net = load_circuit(args.circuit)
    arrival = parse_arrivals(args.arrival, net.inputs)
    tracer = make_tracer(args)
    if args.topological_only:
        print(timing_report(net, arrival))
    else:
        session = AnalysisSession(net, options=make_options(args, tracer))
        print(session.report(arrival))
    finish_tracer(args, tracer)
    return 0


def cmd_delay(args: argparse.Namespace) -> int:
    net = load_circuit(args.circuit)
    arrival = parse_arrivals(args.arrival, net.inputs)
    tracer = make_tracer(args)
    session = AnalysisSession(net, options=make_options(args, tracer))
    delays = session.functional_delays(arrival)
    for out in net.outputs:
        print(f"{out}\t{delays[out]:g}")
    finish_tracer(args, tracer)
    return 0


def run_batch(
    args: argparse.Namespace,
    session: AnalysisSession,
    arrival: dict[str, float],
    method: str,
) -> None:
    """The ``--scenarios`` path: analyze the batch, print its report.

    ``arrival`` (the ``--arrival`` entries) supplies defaults for the
    inputs each scenario, or a family's ``arrival`` object, leaves
    unset.
    """
    from repro.core.design_report import render_batch_report
    from repro.scenarios.spec import ScenarioSet

    design = session.design
    batch = load_scenarios(args.scenarios, design.inputs)
    if isinstance(batch, list):
        batch = ScenarioSet([{**arrival, **s} for s in batch])
        result = session.analyze_batch(batch, method=method)
        print(render_batch_report(design, result, show_nets=args.nets))
    else:
        family = batch.with_arrival(arrival) if arrival else batch
        print(session.analyze_family(family).render())


def run_design_command(args: argparse.Namespace, method: str) -> int:
    """``hier-report`` and ``demand``: one design, one report.

    ``--scenarios`` evaluates a batch; otherwise the session runs the
    command's own analysis once.
    """
    design = load_design(args.circuit)
    arrival = parse_arrivals(args.arrival, design.inputs)
    tracer = make_tracer(args)
    session = AnalysisSession(design, options=make_options(args, tracer))
    if args.scenarios:
        run_batch(args, session, arrival, method)
    elif method == "demand":
        from repro.core.design_report import render_design_report

        result = session.demand_driven(arrival)
        print(render_design_report(design, result, show_nets=args.nets))
    else:
        print(session.hier_report(arrival, show_nets=args.nets))
    finish_tracer(args, tracer)
    return 0


def cmd_hier_report(args: argparse.Namespace) -> int:
    return run_design_command(args, "hierarchical")


def cmd_demand(args: argparse.Namespace) -> int:
    return run_design_command(args, "demand")


def cmd_forensics(args: argparse.Namespace) -> int:
    circuit = load_design(args.circuit)
    arrival = parse_arrivals(args.arrival, circuit.inputs)
    tracer = make_tracer(args)
    session = AnalysisSession(circuit, options=make_options(args, tracer))
    report = session.forensics(arrival)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    finish_tracer(
        args, tracer, stream=sys.stderr if args.json else sys.stdout
    )
    return 0


def cmd_sdc(args: argparse.Namespace) -> int:
    from repro.core.sdc_export import export_design_sdc

    circuit = load_design(args.circuit)
    tracer = make_tracer(args)
    options = make_options(args, tracer)
    if args.output:
        with Path(args.output).open("w") as out:
            count = export_design_sdc(circuit, out, options=options)
        print(f"wrote {count} constraints to {args.output}",
              file=sys.stderr)
    else:
        export_design_sdc(circuit, sys.stdout, options=options)
    finish_tracer(args, tracer, stream=sys.stderr)
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    from repro.resilience.degradation import DegradationLog

    net = load_circuit(args.circuit)
    tracer = make_tracer(args)
    session = AnalysisSession(net, options=make_options(args, tracer))
    dlog = DegradationLog(tracer)
    models = session.characterize(dlog=dlog)
    if dlog:
        # A partly topological library must never pass for an exact one.
        print(
            f"conservative degradations ({len(dlog)}):", file=sys.stderr
        )
        for degradation in dlog:
            print(f"  {degradation}", file=sys.stderr)
    library = session.library
    if library is not None:
        print(
            f"model library: {library.stats.hits} hits, "
            f"{library.stats.characterizations} characterizations",
            file=sys.stderr,
        )
    target = Path(args.output) if args.output else None
    if target is None:
        export_timing_library(
            net.name, net.inputs, net.outputs, models, sys.stdout
        )
    else:
        with target.open("w") as fp:
            export_timing_library(
                net.name, net.inputs, net.outputs, models, fp
            )
        print(f"wrote {target}", file=sys.stderr)
    finish_tracer(args, tracer, stream=sys.stderr)
    return 0


#: ``--preload gen:...`` specs understood by ``serve`` (and by
#: ``tools/bench_server.py``): generated cascade carry-skip adders.
GEN_SPEC = re.compile(r"^gen:csa(\d+)\.(\d+)$")


def preload_design(registry, spec: str):
    """Register one ``--preload`` spec: a ``.v`` path or ``gen:csaW.B``."""
    match = GEN_SPEC.match(spec)
    if match:
        from repro.circuits.adders import cascade_adder

        total, block = int(match.group(1)), int(match.group(2))
        try:
            design = cascade_adder(total, block)
        except Exception as exc:
            raise ReproError(f"{spec}: {exc}") from None
        return registry.register_design(design)
    if spec.startswith("gen:"):
        raise ReproError(
            f"unknown generator spec {spec!r}; expected gen:csaW.B "
            "(e.g. gen:csa32.2)"
        )
    return registry.register_file(spec)


#: Seconds ``serve`` waits for in-flight requests after SIGTERM/SIGINT
#: before it closes anyway.
DRAIN_SECONDS = 10.0


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.obs.profiler import SamplingProfiler
    from repro.obs.slo import parse_slo_spec
    from repro.server import TimingHTTPServer, TimingServerApp

    try:
        slo = tuple(
            parse_slo_spec(spec, target=args.slo_target)
            for spec in args.slo
        )
        profiler = (
            SamplingProfiler(hz=args.sample_hz) if args.sample_hz else None
        )
        app = TimingServerApp(
            options=make_options(args),
            max_batch=args.max_batch,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            flight_capacity=args.flight_capacity,
            slo=slo,
            profiler=profiler,
        )
    except ValueError as exc:
        raise ReproError(str(exc)) from None
    if profiler is not None:
        profiler.start()
        print(
            f"sampling profiler on at {args.sample_hz:g} Hz "
            "(GET /debug/profile)",
            file=sys.stderr,
        )
    for spec in args.preload:
        entry = preload_design(app.registry, spec)
        print(
            f"registered {entry.name} ({entry.design_id}) "
            f"in {entry.compile_seconds:.2f}s",
            file=sys.stderr,
        )
    server = TimingHTTPServer(
        app,
        args.host,
        args.port,
        verbose=args.verbose,
        max_body_bytes=args.max_body_bytes,
    )
    # Signal-driven graceful drain.  The accept loop runs on a
    # background thread so the main thread is free to field SIGTERM /
    # SIGINT, flip readiness, and wait out in-flight work — calling
    # serve_forever() and shutdown() on the same thread deadlocks.
    stop = threading.Event()
    received: dict[str, int] = {}

    def _on_signal(signum: int, _frame) -> None:
        received.setdefault("signum", signum)
        stop.set()

    # handlers go in before the address is announced: a supervisor that
    # signals the moment it sees the port must still get a clean drain
    installed = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            installed.append((sig, signal.signal(sig, _on_signal)))
        except (ValueError, OSError):  # not the main thread (tests)
            pass
    # Parsed by tools/bench_server.py and humans alike; flushed so a
    # pipe sees the address before the first request.
    print(
        f"serving {len(app.registry)} design(s) on {server.url}",
        flush=True,
    )
    accept = threading.Thread(
        target=server.serve_forever,
        name=f"serve-accept:{server.port}",
        daemon=True,
    )
    accept.start()
    try:
        try:
            stop.wait()
        except KeyboardInterrupt:
            # handler install failed (embedded use): honor Ctrl-C anyway
            received.setdefault("signum", signal.SIGINT)
        signum = received.get("signum", signal.SIGTERM)
        drain = DRAIN_SECONDS
        print(
            f"{signal.Signals(signum).name} received: draining "
            f"(deadline {drain:g}s)",
            file=sys.stderr,
        )
        # Drain order matters: readiness goes false and gated routes
        # start shedding *while the socket still answers* (health
        # checks, in-flight responses); only once admitted work has
        # cleared does the accept loop stop.
        clean = app.drain(drain)
        if profiler is not None:
            profiler.stop()
        if not clean:
            print(
                "drain deadline exceeded; closing with requests "
                "still in flight",
                file=sys.stderr,
            )
        server.shutdown()
        accept.join(timeout=5.0)
        return 130 if signum == signal.SIGINT else 0
    finally:
        for sig, old in installed:
            signal.signal(sig, old)


def cmd_table1(_args: argparse.Namespace) -> int:
    from repro.bench.table1 import main as table1_main

    table1_main()
    return 0


def cmd_table2(_args: argparse.Namespace) -> int:
    from repro.bench.table2 import main as table2_main

    table2_main()
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.bench.figures import main as figures_main

    figures_main()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro-sta",
        description="Hierarchical functional timing analysis (XBD0).",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_circuit_opts(
        p: argparse.ArgumentParser, arrival: bool = True
    ) -> None:
        p.add_argument("circuit", help="netlist file (.bench or .blif)")
        if arrival:
            p.add_argument(
                "--arrival",
                action="append",
                default=[],
                metavar="PI=TIME",
                help="primary-input arrival time (repeatable; default 0.0)",
            )

    def add_cache_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            metavar="N",
            help="characterize with N worker processes (default 1)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="persistent model-library directory (default: no cache)",
        )

    def add_resilience_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--deadline",
            type=float,
            default=None,
            metavar="SECONDS",
            help="wall-clock budget for the analysis; past it, remaining "
            "work degrades to conservative topological models instead of "
            "running longer",
        )
        p.add_argument(
            "--module-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-cone characterization timeout on the parallel "
            "path; a hung worker becomes a retry, then a degradation",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=2,
            metavar="N",
            help="worker-failure retry rounds before falling back to "
            "serial characterization (default 2)",
        )
        p.add_argument(
            "--refine-budget",
            type=int,
            default=None,
            metavar="N",
            help="max demand-driven refinement checks per run; past it, "
            "edges keep their conservative topological weights",
        )
        p.add_argument(
            "--inject",
            action="append",
            default=[],
            metavar="SPEC",
            help="arm a deterministic fault POINT:KIND[:TIMES[:K=V,...]] "
            "(robustness drills; repeatable)",
        )

    def add_batch_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scenarios",
            default=None,
            metavar="FILE",
            help="batch mode: a JSON list of arrival scenarios, each "
            "an object keyed by input name or a list aligned with "
            "the design's input order, or a scenario-spec or "
            "scenario-family object (see docs/SCENARIOS.md); "
            "--arrival entries become defaults",
        )

    def add_obs_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace",
            action="store_true",
            help="collect a trace and print the per-phase breakdown",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="like --trace, plus a per-record-type cost table",
        )
        p.add_argument(
            "--trace-file",
            default=None,
            metavar="FILE",
            help="also write every trace record as JSON lines to FILE",
        )
        p.add_argument(
            "--export-trace",
            default=None,
            metavar="FILE.json",
            help="write the trace in Chrome trace-event JSON "
            "(open with chrome://tracing or https://ui.perfetto.dev)",
        )
        p.add_argument(
            "--export-metrics",
            default=None,
            metavar="FILE.prom",
            help="write the run's counters/gauges/histograms in "
            "Prometheus text exposition format",
        )

    def add_analysis_opts(
        p: argparse.ArgumentParser,
        arrival: bool = True,
        cache: bool = False,
    ) -> None:
        """The flags a command reads: ``--jobs``/``--cache-dir`` only
        where it characterizes, ``--arrival`` only where arrivals
        matter."""
        add_circuit_opts(p, arrival)
        if cache:
            add_cache_opts(p)
        add_obs_opts(p)

    report = sub.add_parser("report", help="print a timing report")
    add_analysis_opts(report)
    report.add_argument(
        "--topological-only",
        action="store_true",
        help="skip the functional (XBD0) comparison section",
    )
    report.set_defaults(func=cmd_report)

    delay = sub.add_parser("delay", help="print per-output XBD0 delays")
    add_analysis_opts(delay)
    delay.set_defaults(func=cmd_delay)

    hier_help = (
        "two-step (Section 3) report for a hierarchical Verilog design: "
        "characterize every module, then propagate (with --cache-dir, "
        "through a persistent model library whose counters are "
        "appended); 'demand' runs the demand-driven analysis"
    )
    hier = sub.add_parser(
        "hier-report", help=hier_help, description=hier_help
    )
    add_analysis_opts(hier, cache=True)
    add_resilience_opts(hier)
    add_batch_opts(hier)
    hier.add_argument(
        "--nets", action="store_true", help="include the per-net table"
    )
    hier.set_defaults(func=cmd_hier_report)

    demand = sub.add_parser(
        "demand",
        help="demand-driven (Section 5) report for a hierarchical "
        "Verilog design, with batched multi-scenario analysis",
    )
    add_analysis_opts(demand, cache=True)
    add_resilience_opts(demand)
    add_batch_opts(demand)
    demand.add_argument(
        "--nets", action="store_true", help="include the per-net table"
    )
    demand.set_defaults(func=cmd_demand)

    forensics = sub.add_parser(
        "forensics",
        help="conservatism audit of a demand-driven run: topological "
        "vs refined arrival per output, and which refinements closed "
        "the gap",
    )
    add_analysis_opts(forensics)
    add_resilience_opts(forensics)
    forensics.add_argument(
        "--json",
        action="store_true",
        help="emit the audit as JSON instead of the text table",
    )
    forensics.set_defaults(func=cmd_forensics)

    sdc = sub.add_parser(
        "sdc",
        help="export false-path SDC exceptions for a hierarchical design",
    )
    add_analysis_opts(sdc, arrival=False)
    sdc.add_argument("-o", "--output", help="output file (default: stdout)")
    sdc.set_defaults(func=cmd_sdc)

    character = sub.add_parser(
        "characterize", help="write a black-box timing library (JSON)"
    )
    add_analysis_opts(character, arrival=False, cache=True)
    add_resilience_opts(character)
    character.add_argument(
        "-o", "--output", help="output file (default: stdout)"
    )
    character.set_defaults(func=cmd_characterize)

    serve = sub.add_parser(
        "serve",
        help="run the long-lived analysis server: compiled designs "
        "held hot in memory, concurrent JSON requests coalesced into "
        "kernel batches (also: python -m repro.server)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default %(default)s)",
    )
    serve.add_argument(
        "--port",
        type=_int_in(0, 65535),
        default=8421,
        metavar="N",
        help="bind port; 0 picks an ephemeral port (default %(default)s)",
    )
    serve.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="DESIGN",
        help="register a design at startup: a structural Verilog file "
        "or a generator spec like gen:csa32.2 (repeatable)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="max scenarios coalesced into one kernel call "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission control: at most N analysis requests evaluate "
        "at once; excess queues briefly, then is shed with a 503 "
        "'overloaded' + retry_after_ms (default: unbounded)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=64,
        metavar="N",
        help="admitted-work queue depth behind --max-inflight; beyond "
        "it requests are shed immediately (default %(default)s)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=_int_in(1),
        default=16 * 1024 * 1024,
        metavar="N",
        help="largest accepted request body; bigger gets a 413 "
        "'body-too-large' before any bytes are buffered "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--inject",
        action="append",
        default=[],
        metavar="SPEC",
        help="arm a deterministic fault POINT:KIND[:TIMES[:K=V,...]] "
        "at the server's chaos points (server.compile, "
        "server.propagate, coalescer.flush); repeatable",
    )
    add_cache_opts(serve)
    serve.add_argument(
        "--slo",
        action="append",
        default=[],
        metavar="ROUTE=MS",
        help="track a latency SLO for a route (e.g. /analyze=250): "
        "multi-window burn rates on /metrics, verdicts on "
        "GET /healthz/slo (repeatable)",
    )
    serve.add_argument(
        "--slo-target",
        type=float,
        default=0.999,
        metavar="FRACTION",
        help="good-request fraction the --slo objectives promise "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--flight-capacity",
        type=int,
        default=512,
        metavar="N",
        help="per-request flight-recorder ring size behind "
        "GET /debug/requests; 0 disables recording "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--sample-hz",
        type=_sample_rate,
        default=0.0,
        metavar="HZ",
        help="run the sampling profiler at HZ samples/second (a finite "
        "positive rate; 0 = off); flamegraph-ready collapsed stacks at "
        "GET /debug/profile (default: off)",
    )
    serve.add_argument(
        "--verbose",
        action="store_true",
        help="log every HTTP request to stderr",
    )
    serve.set_defaults(func=cmd_serve)

    for name, func, doc in (
        ("table1", cmd_table1, "regenerate the paper's Table 1"),
        ("table2", cmd_table2, "regenerate the paper's Table 2"),
        ("figures", cmd_figures, "regenerate the paper's Figures 3-5"),
    ):
        p = sub.add_parser(name, help=doc)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # Worker pools are already shut down with cancel_futures=True by
        # the resilient executor before the interrupt reaches here.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
