"""Unified analysis facade: :class:`AnalysisOptions` + :class:`AnalysisSession`.

This module is the single front door to the analyzers under
:mod:`repro.core`:

* :class:`AnalysisOptions` — one keyword-only, validated, frozen bundle
  of every analysis knob.  It is the only way to configure an
  analyzer: every constructor takes ``options=`` (keyword-only) and no
  other configuration keyword.
* :class:`AnalysisSession` — one object wrapping a loaded circuit
  (flat :class:`~repro.netlist.network.Network` or hierarchical
  :class:`~repro.netlist.hierarchy.HierDesign`) that exposes the whole
  analyzer surface as methods.  Analyzers, the model library, and the
  tracer are created once and shared, so successive calls reuse cached
  timing models and aggregate into one trace.  The ``repro-sta``
  analysis commands run through a session.

Example::

    from repro.api import AnalysisOptions, AnalysisSession
    from repro.obs import Tracer, RingBufferSink

    tracer = Tracer(sinks=[RingBufferSink()])
    session = AnalysisSession.from_file(
        "design.v", options=AnalysisOptions(tracer=tracer)
    )
    result = session.demand_driven()
    print(result.delay, result.critical_outputs())
    print(tracer.summary())
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from repro.errors import AnalysisError, ParseError, ReproError
from repro.netlist.hierarchy import HierDesign, Module
from repro.netlist.network import Network
from repro.obs.trace import NULL_TRACER, Tracer, ensure_tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.conditional import ConditionalResult
    from repro.core.demand import DemandDrivenResult, PinPairExplanation
    from repro.core.hier import HierResult
    from repro.core.subflat import SubFlatResult
    from repro.core.timing_model import TimingModel
    from repro.kernel.design import CompiledDesign
    from repro.library.store import ModelLibrary
    from repro.obs.forensics import ForensicsReport
    from repro.resilience.degradation import DegradationLog
    from repro.scenarios.families import ScenarioFamily
    from repro.scenarios.result import FamilyResult


@dataclass(frozen=True, kw_only=True)
class AnalysisOptions:
    """Every analysis knob, in one validated keyword-only bundle.

    No knob picks the tautology engine; the code picks it by kind of
    work (:data:`repro.core.xbd0.FLAT_ENGINE` for flat analysis,
    :data:`repro.core.xbd0.CONE_ENGINE` for per-cone checks).

    Parameters
    ----------
    functional:
        ``False`` selects topological (baseline) timing models.
    jobs:
        Worker processes for parallel characterization (clamped ≥ 1).
    cache_dir:
        Persistent model-library directory (``None`` = no disk cache;
        a process still characterizes each module structure once).
    tracer:
        :class:`~repro.obs.trace.Tracer` receiving the run's spans,
        events, and counters (``None`` = tracing off, zero overhead).
    deadline:
        Wall-clock budget (seconds) for one analysis call.  Work past
        the deadline degrades to topological models instead of running
        longer (``None`` or ``inf`` = unlimited; NaN is rejected).
    module_timeout:
        Timeout (seconds) of one output cone's characterization on the
        parallel path; a hung worker task becomes a retry, then a
        degradation (``None`` or ``inf`` = no timeout).
    retries:
        Worker-failure retry rounds before a cone falls back to serial
        (then topological) characterization.
    refine_budget:
        Maximum demand-driven refinement checks per ``analyze()`` call
        (``None`` = unlimited); past it, edges keep their conservative
        topological weights.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` arming the
        deterministic fault-injection points (tests and drills only).
    """

    functional: bool = True
    jobs: int = 1
    cache_dir: str | Path | None = None
    tracer: Tracer | None = field(default=None, repr=False)
    deadline: float | None = None
    module_timeout: float | None = None
    retries: int = 2
    refine_budget: int | None = None
    fault_plan: object | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", max(1, int(self.jobs)))
        if self.cache_dir is not None:
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))
        for name in ("deadline", "module_timeout"):
            value = getattr(self, name)
            if value is not None:
                value = float(value)
                if not value > 0:  # NaN fails every comparison
                    raise ValueError(f"{name} must be > 0, got {value}")
                # No limit; blocking waits would reject an infinite one.
                limit = None if value == float("inf") else value
                object.__setattr__(self, name, limit)
        if int(self.retries) < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        object.__setattr__(self, "retries", int(self.retries))
        if self.refine_budget is not None:
            budget = int(self.refine_budget)
            if budget < 0:
                raise ValueError(
                    f"refine_budget must be >= 0, got {budget}"
                )
            object.__setattr__(self, "refine_budget", budget)

    def with_changes(self, **changes) -> "AnalysisOptions":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    @property
    def effective_tracer(self) -> Tracer:
        """The tracer, with ``None`` coerced to the shared null tracer."""
        return ensure_tracer(self.tracer)


#: Message of the removed legacy ``list[dict]``-batch form (the shim
#: warned for several releases and now hard-errors with this hint).
SCENARIO_LIST_REMOVED = (
    "bare scenario lists are no longer accepted by analyze_batch; pass "
    "a repro.scenarios.Scenario or ScenarioSet — e.g. "
    "ScenarioSet.of(*scenarios)"
)


def load_circuit_file(path: str | Path) -> Network | HierDesign:
    """Load a netlist by extension, keeping hierarchy when present.

    ``.bench`` and ``.blif`` yield a flat
    :class:`~repro.netlist.network.Network`; ``.v`` yields a
    :class:`~repro.netlist.hierarchy.HierDesign` when the file holds
    more than a single module.
    """
    from repro.parsers.bench import read_bench
    from repro.parsers.blif import read_blif
    from repro.parsers.verilog import read_verilog

    file = Path(path)
    try:
        with file.open() as fp:
            if file.suffix == ".bench":
                return read_bench(fp, name=file.stem)
            if file.suffix == ".blif":
                return read_blif(fp)
            if file.suffix == ".v":
                return read_verilog(fp)
    except UnicodeDecodeError:
        raise ParseError(
            f"{file.name} is not a text netlist (undecodable bytes)"
        ) from None
    raise ReproError(f"unsupported netlist format: {file.suffix!r}")


class AnalysisSession:
    """One circuit, every analysis, one configuration.

    Wraps a flat network or hierarchical design and exposes the full
    analyzer surface; per-kind analyzer instances are cached so repeated
    calls (re-analysis under new arrival times, incremental edits,
    slack queries) reuse characterized timing models, the shared model
    library, and the shared tracer.

    Flat-only methods raise :class:`~repro.errors.AnalysisError` on a
    hierarchical session and vice versa; :attr:`design` / :attr:`network`
    tell you which one you have.
    """

    def __init__(
        self,
        circuit: Network | HierDesign,
        options: AnalysisOptions | None = None,
        **option_kwargs,
    ):
        if options is None:
            options = AnalysisOptions(**option_kwargs)
        elif option_kwargs:
            options = options.with_changes(**option_kwargs)
        self.options = options
        self.circuit = circuit
        self._library: "ModelLibrary | None" = None
        self._analyzers: dict[str, object] = {}
        self._revision = 0

    # ------------------------------------------------------------- construction
    @classmethod
    def from_file(
        cls,
        path: str | Path,
        options: AnalysisOptions | None = None,
        **option_kwargs,
    ) -> "AnalysisSession":
        """Load ``path`` (.bench/.blif/.v) and wrap it in a session."""
        return cls(load_circuit_file(path), options, **option_kwargs)

    # ------------------------------------------------------------------ surface
    @property
    def tracer(self) -> Tracer:
        """The session tracer (the shared null tracer when disabled)."""
        return self.options.effective_tracer

    @property
    def is_hierarchical(self) -> bool:
        return isinstance(self.circuit, HierDesign)

    @property
    def design(self) -> HierDesign:
        """The hierarchical design (raises on a flat session)."""
        if not isinstance(self.circuit, HierDesign):
            raise AnalysisError(
                "session wraps a flat network; hierarchical analyses "
                "need a HierDesign (structural Verilog)"
            )
        return self.circuit

    @property
    def network(self) -> Network:
        """The flat network (a hierarchical session flattens once per
        design revision)."""
        if isinstance(self.circuit, HierDesign):
            return self._analyzer("flat", self.circuit.flatten)
        return self.circuit

    @property
    def library(self) -> "ModelLibrary | None":
        """The shared model library (created once from ``cache_dir``).

        ``None`` without ``cache_dir``: Step 1 then uses the process's
        memory-only :data:`~repro.library.store.PROCESS_LIBRARY`, and
        reports print no model-library block.
        """
        if self._library is None and self.options.cache_dir is not None:
            from repro.library.store import ModelLibrary

            self._library = ModelLibrary(
                self.options.cache_dir, fault_plan=self.options.fault_plan
            )
        return self._library

    def _cached(self) -> dict[str, object]:
        """The cached analyzers, minus any built before a design edit.

        The shared hierarchical analyzer survives: edits reach it through
        :meth:`~repro.core.hier.IncrementalAnalyzer.replace_module`,
        which drops the edited module's models and the compiled handle.
        """
        revision = getattr(self.circuit, "revision", 0)
        if revision != self._revision:
            self._revision = revision
            self._analyzers = {
                key: value
                for key, value in self._analyzers.items()
                if key == "hier"
            }
        return self._analyzers

    def _analyzer(self, key: str, factory):
        cached = self._cached()
        if key not in cached:
            cached[key] = factory()
        return cached[key]

    def _hier(self):
        """The one hierarchical analyzer behind :meth:`hierarchical`,
        :meth:`compile`, :meth:`analyze_batch` and :meth:`incremental`."""
        from repro.core.hier import IncrementalAnalyzer

        return self._analyzer(
            "hier",
            lambda: IncrementalAnalyzer(
                self.design, library=self.library, options=self.options
            ),
        )

    # ---------------------------------------------------------------- analyses
    def hierarchical(
        self, arrival: Mapping[str, float] | None = None
    ) -> "HierResult":
        """Two-step (Section 3) analysis."""
        return self._hier().analyze(arrival)

    def compile(self) -> "CompiledDesign":
        """Compile the design once into a reusable
        :class:`~repro.kernel.design.CompiledDesign` handle.

        Characterizes any missing timing models, then freezes the
        top-level timing graph into flat arrays.  The handle is cached
        on the session's hierarchical analyzer and reused by
        :meth:`analyze_batch`; module edits through :meth:`incremental`
        invalidate it.
        """
        return self._hier().compile()

    def analyze_family(self, family: "ScenarioFamily") -> "FamilyResult":
        """Evaluate a scenario family against the compiled design.

        ``family`` is a :class:`~repro.scenarios.ScenarioFamily`
        (:class:`~repro.scenarios.CornerSweep`,
        :class:`~repro.scenarios.ParametricSweep`, or
        :class:`~repro.scenarios.MonteCarlo`); JSON specs are read at
        the CLI and server boundaries
        (:func:`~repro.scenarios.spec.read_batch`).  The design is
        compiled once (:meth:`compile` — cached), every member streams
        through the kernel's delay-override hooks in chunks of
        :data:`~repro.kernel.execute.CHUNK`, and the aggregated
        :class:`~repro.scenarios.FamilyResult` comes back.
        """
        from repro.scenarios import analyze_family

        return analyze_family(self.compile(), family, tracer=self.tracer)

    def analyze_batch(
        self,
        scenarios,
        method: str = "hierarchical",
    ):
        """Analyze a batch of arrival scenarios in one call.

        ``scenarios`` is a :class:`~repro.scenarios.Scenario` or
        :class:`~repro.scenarios.ScenarioSet`.  A bare ``list[dict]``
        raises :class:`AnalysisError` with a migration hint, and so
        does a scenario family, which varies delays rather than
        arrivals (run it with :meth:`analyze_family`).
        ``method`` selects the analysis: ``"hierarchical"`` (Section 3
        two-step) or ``"demand"`` (Section 5 demand-driven, refinements
        shared across the batch).  Returns a
        :class:`~repro.core.batch.BatchResult` with per-scenario
        arrivals/slacks and the shared degradation log.
        """
        from repro.scenarios.spec import ScenarioSpec

        if not isinstance(scenarios, ScenarioSpec):
            raise AnalysisError(SCENARIO_LIST_REMOVED)
        if scenarios.kind == "family":
            raise AnalysisError(
                "scenario families vary delays, not arrivals; evaluate "
                "them with analyze_family()"
            )
        scenarios = scenarios.expand()
        if method == "hierarchical":
            analyzer = self._hier()
        elif method == "demand":
            from repro.core.demand import DemandDrivenAnalyzer

            analyzer = self._analyzer(
                "demand",
                lambda: DemandDrivenAnalyzer(
                    self.design, options=self.options
                ),
            )
        else:
            raise AnalysisError(
                f"unknown batch method {method!r}; "
                "expected 'hierarchical' or 'demand'"
            )
        return analyzer.analyze_batch(scenarios)

    def incremental(self):
        """The session's :class:`~repro.core.hier.IncrementalAnalyzer`.

        Returned directly (not just its result) because incremental flows
        interleave :meth:`~repro.core.hier.IncrementalAnalyzer.replace_module`
        with re-analysis.  It is the analyzer behind :meth:`hierarchical`,
        :meth:`compile` and :meth:`analyze_batch`, so an edit through it
        reaches them; every other cached analyzer, and the flattened
        network, is rebuilt from the edited design on next use.
        """
        return self._hier()

    def demand_driven(
        self, arrival: Mapping[str, float] | None = None
    ) -> "DemandDrivenResult":
        """Demand-driven (Section 5) analysis."""
        from repro.core.demand import DemandDrivenAnalyzer

        analyzer = self._analyzer(
            "demand",
            lambda: DemandDrivenAnalyzer(self.design, options=self.options),
        )
        return analyzer.analyze(arrival)

    def forensics(
        self, arrival: Mapping[str, float] | None = None
    ) -> "ForensicsReport":
        """Conservatism audit of a demand-driven run (Section 5).

        Runs the demand-driven loop on a **fresh** analyzer (the cached
        one may already carry refined weights, which would understate
        the topological bound) and returns the
        :class:`~repro.obs.forensics.ForensicsReport`: per primary
        output the topological arrival, the refined arrival, and the
        ordered refinements that closed the gap.
        """
        from repro.core.demand import DemandDrivenAnalyzer

        analyzer = DemandDrivenAnalyzer(self.design, options=self.options)
        analyzer.analyze(arrival)
        return analyzer.forensics_report()

    def explain_pin(
        self, module: str, inp: str, out: str
    ) -> "PinPairExplanation":
        """Provenance of one refined pin pair (after :meth:`demand_driven`)."""
        analyzer = self._cached().get("demand")
        if analyzer is None:
            raise AnalysisError("run demand_driven() before explain_pin()")
        return analyzer.explain_pin(module, inp, out)

    def per_instance(
        self, arrival: Mapping[str, float] | None = None
    ) -> "HierResult":
        """Footnote-6 SDC-aware per-instance analysis."""
        from repro.core.instance_models import PerInstanceAnalyzer

        analyzer = self._analyzer(
            "per_instance",
            lambda: PerInstanceAnalyzer(self.design, options=self.options),
        )
        return analyzer.analyze(arrival)

    def subflat(
        self, arrival: Mapping[str, float] | None = None
    ) -> "SubFlatResult":
        """Footnote-12 baseline: flat analysis per instance."""
        from repro.core.subflat import SubcircuitFlatAnalyzer

        analyzer = self._analyzer(
            "subflat",
            lambda: SubcircuitFlatAnalyzer(self.design, options=self.options),
        )
        return analyzer.analyze(arrival)

    def conditional(
        self,
        vector: Mapping[str, bool],
        arrival: Mapping[str, float] | None = None,
    ) -> "ConditionalResult":
        """Footnote-8 exact per-vector analysis."""
        from repro.core.conditional import ConditionalAnalyzer

        analyzer = self._analyzer(
            "conditional",
            lambda: ConditionalAnalyzer(self.design, options=self.options),
        )
        return analyzer.analyze(vector, arrival)

    def functional_delays(
        self, arrival: Mapping[str, float] | None = None
    ) -> dict[str, float]:
        """Flat XBD0 stable time per primary output.

        Runs on :data:`~repro.core.xbd0.FLAT_ENGINE`.
        """
        from repro.core.xbd0 import functional_delays

        return functional_delays(
            self.network, arrival, tracer=self.options.tracer
        )

    def characterize(
        self, dlog: "DegradationLog | None" = None
    ) -> "dict[str, TimingModel]":
        """Timing models for the (flattened) network's outputs.

        The network goes through the library scheduler as one module:
        its output cones run in-process at ``jobs=1`` and over worker
        processes above it, through the model library when
        ``cache_dir`` is set.  The run honours ``deadline``: a cone past
        it, or one whose characterization fails, gets its topological
        model, the substitution is recorded on ``dlog``, and the
        degraded network is not stored in the library.
        """
        from repro.library.scheduler import characterize_modules

        network = self.network
        return characterize_modules(
            {network.name: Module(network.name, network)},
            self.options,
            self.library,
            dlog,
        )[network.name]

    # ----------------------------------------------------------------- reports
    def report(self, arrival: Mapping[str, float] | None = None) -> str:
        """Flat topological + functional report (the ``report`` command)."""
        from repro.sta.report import functional_timing_report, timing_report

        return (
            timing_report(self.network, arrival)
            + "\n"
            + functional_timing_report(
                self.network, arrival, tracer=self.options.tracer
            )
        )

    def hier_report(
        self,
        arrival: Mapping[str, float] | None = None,
        show_nets: bool = False,
    ) -> str:
        """Two-step (Section 3) report (the ``hier-report`` command).

        Runs :meth:`hierarchical` and appends the model library's
        counters when the session has a library.
        """
        from repro.core.design_report import render_hier_report

        result = self.hierarchical(arrival)
        return render_hier_report(
            self.design, result, show_nets=show_nets, library=self.library
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "HierDesign" if self.is_hierarchical else "Network"
        name = getattr(self.circuit, "name", "?")
        traced = self.tracer is not NULL_TRACER
        return f"AnalysisSession({kind} {name!r}, traced={traced})"
