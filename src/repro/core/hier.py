"""Two-step hierarchical timing analysis (Section 3 of the paper).

Step 1 — *timing characterization*: every distinct leaf module is analyzed
once (regardless of instance count); each output gets a
:class:`~repro.core.timing_model.TimingModel` whose tuples come from the
approximate required-time analysis and therefore already account for false
paths inside the module.

Step 2 — *hierarchical delay computation*: instances are visited in
topological order; the stable time of each instance output is the min-max
combination of its input arrivals with the module's timing model.

Theorem 1: the result conservatively approximates flat XBD0 analysis.

Section 3.3's incremental analysis falls out of the structure: a module's
model is environment-independent, so modifying one module invalidates only
its own characterization; re-analysis reuses every other cached model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.result import AnalysisResultMixin, removed_alias
from repro.core.timing_model import NEG_INF, POS_INF, TimingModel
from repro.core.xbd0 import reject_nan_arrivals
from repro.errors import AnalysisError, NetlistError
from repro.netlist.hierarchy import HierDesign
from repro.netlist.network import Network
from repro.obs.trace import ensure_tracer
from repro.resilience.degradation import Degradation, DegradationLog
from repro.sta.paths import all_pin_path_lengths

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import AnalysisOptions
    from repro.core.batch import BatchResult
    from repro.kernel.design import CompiledDesign
    from repro.library.store import ModelLibrary


def topological_models(network: Network) -> dict[str, TimingModel]:
    """Single-tuple models from longest topological pin-to-pin delays.

    The baseline Step-1 alternative: what a purely topological hierarchical
    analyzer would use.
    """
    pin_lengths = all_pin_path_lengths(network, cap=1)
    models: dict[str, TimingModel] = {}
    for output in network.outputs:
        delays = {
            x: pin_lengths[(x, output)][0]
            for x in network.inputs
            if (x, output) in pin_lengths
        }
        models[output] = TimingModel.topological(
            output, network.inputs, delays
        )
    return models


@dataclass
class HierResult(AnalysisResultMixin):
    """Outcome of a hierarchical analysis run."""

    #: Stable time of every top-level net (PIs at their arrival times),
    #: a read-only view over the kernel's result row.
    net_times: Mapping[str, float]
    #: Stable time per primary output (a view over the same row).
    output_times: Mapping[str, float]
    #: max over primary outputs.
    delay: float
    #: Modules characterized during this run (empty on a warm cache).
    characterized_modules: tuple[str, ...] = ()
    #: Wall-clock seconds spent characterizing leaf modules (step 1).
    characterization_seconds: float = 0.0
    #: Wall-clock seconds spent propagating arrivals (step 2).
    propagation_seconds: float = 0.0
    #: Conservative fallbacks taken during this run (empty on a clean
    #: run); each entry is a :class:`~repro.resilience.Degradation`.
    degradations: tuple[Degradation, ...] = ()

    #: Removed spelling of :attr:`characterized_modules` (raises).
    characterized = removed_alias("characterized", "characterized_modules")

    @property
    def degraded(self) -> bool:
        """True when any conservative fallback was taken."""
        return bool(self.degradations)

    @property
    def elapsed_seconds(self) -> float:
        """Total run time: step-1 characterization + step-2 propagation."""
        return self.characterization_seconds + self.propagation_seconds

    def _to_dict_extra(self) -> dict:
        return {
            "characterized_modules": list(self.characterized_modules),
            "characterization_seconds": self.characterization_seconds,
            "propagation_seconds": self.propagation_seconds,
            "degradations": [d.as_dict() for d in self.degradations],
        }


class HierarchicalAnalyzer:
    """Stateful two-step analyzer with a per-module model cache.

    Parameters
    ----------
    design:
        Depth-1 hierarchical design (validated on construction).
    options:
        The :class:`~repro.api.AnalysisOptions` bundle:
        ``functional=False`` for topological pin-to-pin models (the
        baseline hierarchical-topological analyzer), Step-1 worker
        processes (``jobs``; see :meth:`characterize_all`), the
        model-library directory, the tracer and the resilience knobs.
        ``None`` means the defaults.
    library:
        Optional :class:`~repro.library.store.ModelLibrary` (overrides
        ``options.cache_dir``).  Cached models short-circuit Step 1;
        fresh characterizations are stored back, and cache events go
        to ``options.tracer``.  Without either, Step 1 uses the
        process-wide :data:`~repro.library.store.PROCESS_LIBRARY`
        (:attr:`library` stays ``None``).  Only consulted for
        functional models (topological ones are cheaper than a lookup).
    """

    def __init__(
        self,
        design: HierDesign,
        *,
        options: "AnalysisOptions | None" = None,
        library: "ModelLibrary | None" = None,
    ):
        from repro.api import AnalysisOptions

        if options is None:
            options = AnalysisOptions()
        design.validate()
        self.design = design
        self.options = options
        self.tracer = ensure_tracer(options.tracer)
        self.dlog = DegradationLog(self.tracer)
        if library is None and options.cache_dir is not None:
            from repro.library.store import ModelLibrary

            library = ModelLibrary(
                options.cache_dir, fault_plan=options.fault_plan
            )
        self.library = library
        self._models: dict[str, dict[str, TimingModel]] = {}
        self._compiled: "CompiledDesign | None" = None

    # ------------------------------------------------------------------ step 1
    def preload_models(
        self, module_name: str, models: Mapping[str, TimingModel]
    ) -> None:
        """Install externally supplied timing models for one module.

        The module is never characterized from its netlist — the basis of
        the black-box IP flow (Section 7; see :mod:`repro.core.ipblock`).
        Models must cover every output port and be aligned with the module
        input order.
        """
        module = self.design.modules.get(module_name)
        if module is None:
            raise AnalysisError(f"unknown module {module_name!r}")
        for out in module.outputs:
            if out not in models:
                raise AnalysisError(
                    f"preloaded models missing output {out!r}"
                )
            if tuple(models[out].inputs) != tuple(module.inputs):
                raise AnalysisError(
                    f"model for {out!r} not aligned with module inputs"
                )
        self._models[module_name] = dict(models)
        self._compiled = None

    def models_for(self, module_name: str) -> dict[str, TimingModel]:
        """Timing models of one module, characterized on first use.

        A module not yet cached goes through the same Step-1 call as
        :meth:`characterize_all`, so it gets the same library lookup,
        run deadline, fault points and recorded topological fallback.
        """
        if module_name not in self._models:
            self._characterize((module_name,))
        return self._models[module_name]

    def _note_fresh(self, module_name: str) -> None:
        """Hook: models for ``module_name`` were installed this run."""

    def characterize_all(self) -> tuple[str, ...]:
        """Characterize every module not yet cached; returns their names.

        Functional models always come from the library scheduler
        (:func:`~repro.library.scheduler.characterize_modules`), through
        :attr:`library` or the process-wide one: ``options.jobs`` worker
        processes, or in-process at 1, with structural twins
        characterized once.
        Results are identical for any job count.  ``functional=False``
        installs topological models.

        Failures never abort the run: an output cone whose
        characterization crashes, times out, or falls past the run
        deadline (``options.deadline``, started by this call) gets its
        topological model instead (conservative by Theorem 1) and the
        substitution is recorded on :attr:`dlog`.
        """
        fresh = tuple(
            name for name in self.design.modules if name not in self._models
        )
        if fresh:
            self._characterize(fresh)
        return fresh

    def _characterize(self, names: tuple[str, ...]) -> None:
        """Step 1 for ``names``: install their models in the cache."""
        modules = {name: self.design.modules[name] for name in names}
        if self.options.functional:
            from repro.library.scheduler import characterize_modules

            results = characterize_modules(
                modules, self.options, self.library, self.dlog
            )
        else:
            results = {
                name: topological_models(module.network)
                for name, module in modules.items()
            }
        for name in names:
            self._models[name] = results[name]
            self._note_fresh(name)

    # ------------------------------------------------------------------ step 2
    def _ensure_models(self) -> tuple[str, ...]:
        """Hook: make every model Step 2 needs available.

        Returns the names characterized by this call (the
        ``characterized_modules`` of the producing result).  The base
        analyzer characterizes per *module*; subclasses with other model
        granularities (per instance) override this and
        :meth:`_models_of_instance` as a pair.
        """
        return self.characterize_all()

    def _models_of_instance(
        self, inst_name: str
    ) -> Mapping[str, TimingModel]:
        """Hook: the timing models one instance propagates through.

        The base analyzer shares one model set per module; subclasses
        may return instance-specific models; :meth:`compile` bakes
        whatever this returns into the plan.
        """
        inst = self.design.instances[inst_name]
        return self.models_for(inst.module_name)

    def compile(self, force: bool = False) -> "CompiledDesign":
        """Compile Step-2 propagation into a reusable handle.

        Characterizes any missing models (recording degradations on
        :attr:`dlog` as usual), then freezes the top-level timing graph
        into the flat arrays of a
        :class:`~repro.kernel.design.CompiledDesign`.  The handle is
        cached; model changes (:meth:`preload_models`,
        :meth:`~IncrementalAnalyzer.replace_module`) invalidate it, and
        ``force=True`` rebuilds unconditionally.
        """
        if self._compiled is None or force:
            from repro.kernel.design import CompiledDesign
            from repro.kernel.plan import compile_design

            t0 = time.perf_counter()
            mark = len(self.dlog)
            fresh = self._ensure_models()
            with self.tracer.span(
                "compile-design", phase="compile", design=self.design.name
            ):
                plan = compile_design(
                    self.design, self._models_of_instance,
                    tracer=self.tracer,
                )
            self._compiled = CompiledDesign(
                plan=plan,
                outputs=tuple(self.design.outputs),
                characterized_modules=fresh,
                degradations=self.dlog.snapshot()[mark:],
                compile_seconds=time.perf_counter() - t0,
            )
        return self._compiled

    def analyze(self, arrival: Mapping[str, float] | None = None) -> HierResult:
        """Propagate arrivals through the instance DAG (Section 3.2).

        One scenario through the compiled plan of :meth:`compile`
        (built on first use and cached on the analyzer).  A NaN arrival
        raises :class:`~repro.errors.AnalysisError`.
        """
        arrival = arrival or {}
        reject_nan_arrivals(arrival)
        design = self.design
        t0 = time.perf_counter()
        mark = len(self.dlog)
        fresh = self._ensure_models()
        t1 = time.perf_counter()
        compiled = self.compile()
        with self.tracer.span(
            "propagate", phase="propagation", design=design.name
        ):
            (net_times,) = compiled.propagate([arrival], tracer=self.tracer)
        output_times = net_times.select(compiled.output_keys)
        delay = max(output_times.values(), default=NEG_INF)
        t2 = time.perf_counter()
        return HierResult(
            net_times=net_times,
            output_times=output_times,
            delay=delay,
            characterized_modules=fresh,
            characterization_seconds=t1 - t0,
            propagation_seconds=t2 - t1,
            degradations=self.dlog.snapshot()[mark:],
        )

    def analyze_batch(self, scenarios) -> "BatchResult":
        """Analyze many arrival scenarios in one call (Section 3.2 × N).

        Characterization and compilation happen once; every scenario
        runs through the compiled kernel.  Per-scenario
        slack is ``deadline − arrival`` under each scenario's own
        deadline (its latest primary-output arrival), the Section-5
        convention.
        """
        from repro.core.batch import BatchResult, ScenarioResult, SlackView

        design = self.design
        scenarios = [dict(s or {}) for s in scenarios]
        for scenario in scenarios:
            reject_nan_arrivals(scenario)
        t0 = time.perf_counter()
        mark = len(self.dlog)
        fresh = self._ensure_models()
        results = []
        if scenarios:
            compiled = self.compile()
            with self.tracer.span(
                "propagate-batch",
                phase="propagation",
                design=design.name,
                scenarios=len(scenarios),
            ):
                rows = compiled.propagate(scenarios, tracer=self.tracer)
            keys = compiled.output_keys
            for scenario, net_times in zip(scenarios, rows):
                output_times = net_times.select(keys)
                delay = max(output_times.values(), default=NEG_INF)
                results.append(
                    ScenarioResult(
                        arrival=scenario,
                        net_times=net_times,
                        output_times=output_times,
                        delay=delay,
                        slacks=SlackView(output_times, delay),
                    )
                )
        return BatchResult(
            scenarios=tuple(results),
            delay=max((r.delay for r in results), default=NEG_INF),
            method="hierarchical",
            degradations=self.dlog.snapshot()[mark:],
            elapsed_seconds=time.perf_counter() - t0,
            stats={"characterized_modules": list(fresh)},
        )

    # ------------------------------------------------------------------ slack
    def input_slack(
        self,
        input_net: str,
        arrival: Mapping[str, float] | None = None,
        resolution: float | None = None,
    ) -> float:
        """Functional slack of a top-level input (Section 4's "real slack").

        Largest extra delay δ on ``input_net`` that leaves the circuit
        delay unchanged, found by re-analysis with a monotone
        binary search on the δ grid.  ``resolution`` defaults to the
        smallest positive gap between model delay values (all benchmark
        delays live on an integer-ish grid).
        """
        if input_net not in self.design.inputs:
            raise AnalysisError(f"{input_net!r} is not a top-level input")
        arrival = dict(arrival or {})
        base = self.analyze(arrival).delay
        if resolution is None:
            resolution = self._delay_resolution(arrival.values())

        def delay_with(delta: float) -> float:
            bumped = dict(arrival)
            bumped[input_net] = float(arrival.get(input_net, 0.0)) + delta
            return self.analyze(bumped).delay

        # Upper bound: delaying an input by D can raise the delay by at
        # most D, so once delta exceeds (topological span) the delay moved
        # if it ever will.
        hi_steps = 1
        limit = max(4096, int(abs(base) / resolution) + 4096)
        while delay_with(hi_steps * resolution) <= base:
            hi_steps *= 2
            if hi_steps > limit:
                return POS_INF
        lo_steps = 0
        while lo_steps < hi_steps - 1:
            mid = (lo_steps + hi_steps) // 2
            if delay_with(mid * resolution) <= base:
                lo_steps = mid
            else:
                hi_steps = mid
        return lo_steps * resolution

    def _delay_resolution(self, extra_values=()) -> float:
        """GCD of the time grid: all model delays plus the given arrivals.

        Every stable time is a sum of arrivals and tuple delays, so the
        exact slack is a multiple of this grid unit (benchmark delays are
        small integers or simple decimals).
        """
        values: set[float] = set()
        for models in self._models.values():
            for model in models.values():
                for tup in model.tuples:
                    values.update(v for v in tup if v not in (NEG_INF, POS_INF))
        values.update(
            v for v in extra_values if v not in (NEG_INF, POS_INF)
        )
        quantum = 1e-6
        acc = 0
        for v in values:
            scaled = round(abs(v) / quantum)
            acc = math.gcd(acc, scaled)
        return acc * quantum if acc else 1.0


class IncrementalAnalyzer(HierarchicalAnalyzer):
    """Hierarchical analyzer with explicit incremental-update support.

    Section 3.3: "a modification of a module only leads to 1) delay
    characterization of the modified module and 2) top-level analysis."
    """

    def __init__(self, design: HierDesign, **kwargs):
        super().__init__(design, **kwargs)
        self.recharacterizations: dict[str, int] = {}

    def _note_fresh(self, module_name: str) -> None:
        self.recharacterizations[module_name] = (
            self.recharacterizations.get(module_name, 0) + 1
        )

    def replace_module(self, module_name: str, new_network: Network) -> None:
        """Swap a module's implementation; only its models are invalidated.

        The new network must keep the same port interface.  Replacing
        a module *back* to a structure seen before is free: the next
        analysis hits the model library (the process-wide one, or a
        persistent one) instead of re-characterizing (Section 3.3's
        incremental claim).
        """
        try:
            self.design.replace_module(module_name, new_network)
        except NetlistError as exc:
            raise AnalysisError(str(exc)) from None
        self._models.pop(module_name, None)
        self._compiled = None
