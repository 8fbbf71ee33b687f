"""Conditional (input-vector-dependent) hierarchical timing analysis.

Footnote 8 of the paper: "If T_exact is used instead of T_approx, one can
construct the correct conditional delay [Yalcin-Hayes] of the module under
the XBD0 model.  In general, each output has more than one conditional
delay unlike the formulation in [9]."

This module implements that construction.  For a *fixed* input vector the
per-vector XBD0 stable time is compositional: the stable time of a module
output depends only on the module-input arrival times and values.  The
exact required-time relation of :mod:`repro.core.required` supplies, per
``(module, input values)``, the set of maximal required-time tuples; in
delay form these are the module's **conditional delays**, and hierarchical
propagation with them is *exact* (not merely conservative) for that
vector.  Maximizing over vectors therefore recovers the flat XBD0 delay —
at exponential cost, so the enumeration helper is for validation on small
designs, while :class:`ConditionalAnalyzer` itself is useful whenever the
vector (an operating mode, an opcode, a configuration word) is known.

Conditional models are cached per ``(module, support values)``, so regular
designs with many instances of one module pay for each distinct local
vector once.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.core.required import exact_required_tuples_for_vector
from repro.core.result import AnalysisResultMixin
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign
from repro.obs.trace import ensure_tracer
from repro.sim.vectors import all_vectors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api import AnalysisOptions

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass
class ConditionalResult(AnalysisResultMixin):
    """Exact per-vector analysis outcome."""

    #: Boolean value of every top-level net under the vector.
    net_values: dict[str, bool]
    #: Exact stable time of every top-level net.
    net_times: dict[str, float]
    #: Per primary output.
    output_times: dict[str, float]
    #: max over primary outputs.
    delay: float
    #: Wall-clock seconds for the run (shadows the read-only mixin
    #: property so the dataclass can assign the field).
    elapsed_seconds: float = 0.0

    def _to_dict_extra(self) -> dict:
        return {
            "net_values": {n: bool(v) for n, v in self.net_values.items()}
        }


class ConditionalAnalyzer:
    """Exact hierarchical analysis for known input vectors.

    Parameters
    ----------
    design:
        Depth-1 hierarchical design.
    max_cone_support:
        Safety cap on the support width of any single output cone (the
        exact relation is exponential in it).
    options:
        An :class:`~repro.api.AnalysisOptions` bundle, like every other
        analyzer (this one reads its tracer; ``None`` means the
        defaults).
    """

    def __init__(
        self,
        design: HierDesign,
        max_cone_support: int = 16,
        *,
        options: "AnalysisOptions | None" = None,
    ):
        from repro.api import AnalysisOptions

        if options is None:
            options = AnalysisOptions()
        design.validate()
        self.design = design
        self.options = options
        self.max_cone_support = max_cone_support
        self.tracer = ensure_tracer(options.tracer)
        # (module, output, restricted value tuple) -> exact delay tuples
        self._cache: dict[tuple[str, str, tuple[bool, ...]], tuple] = {}
        self._cones: dict[tuple[str, str], tuple] = {}

    def _cone_info(self, module_name: str, output: str):
        key = (module_name, output)
        if key not in self._cones:
            network = self.design.modules[module_name].network
            cone = network.extract_cone(output)
            if len(cone.inputs) > self.max_cone_support:
                raise AnalysisError(
                    f"cone {module_name}.{output} has "
                    f"{len(cone.inputs)} inputs > cap "
                    f"{self.max_cone_support}"
                )
            self._cones[key] = (cone, cone.inputs)
        return self._cones[key]

    def conditional_tuples(
        self, module_name: str, output: str, values: Mapping[str, bool]
    ) -> tuple[tuple[str, ...], tuple[tuple[float, ...], ...]]:
        """Exact conditional delay tuples of one output under values.

        Returns ``(cone inputs, delay tuples)`` where each tuple gives
        effective delays (``-inf`` = unconstrained) valid *for this
        vector*; the stable time is ``min over tuples of max_j (a_j +
        d_j)`` and the min-max is exact.
        """
        cone, inputs = self._cone_info(module_name, output)
        restricted = tuple(bool(values[x]) for x in inputs)
        cache_key = (module_name, output, restricted)
        if cache_key not in self._cache:
            if self.tracer.enabled:
                self.tracer.count("conditional.model_misses")
                self.tracer.event(
                    "cache-miss", phase="cache",
                    module=module_name, output=output,
                )
            required = exact_required_tuples_for_vector(
                cone, output, dict(zip(inputs, restricted)), required=0.0
            )
            delays = tuple(
                tuple(NEG_INF if t == POS_INF else -t for t in tup)
                for tup in required
            )
            self._cache[cache_key] = delays
        elif self.tracer.enabled:
            self.tracer.count("conditional.model_hits")
        return inputs, self._cache[cache_key]

    def analyze(
        self,
        vector: Mapping[str, bool],
        arrival: Mapping[str, float] | None = None,
    ) -> ConditionalResult:
        """Exact stable times of every net under one input vector."""
        design = self.design
        arrival = arrival or {}
        start = time.perf_counter()
        values: dict[str, bool] = {}
        times: dict[str, float] = {}
        for x in design.inputs:
            if x not in vector:
                raise AnalysisError(f"vector missing input {x!r}")
            values[x] = bool(vector[x])
            times[x] = float(arrival.get(x, 0.0))
        for inst_name in design.instance_order():
            inst = design.instances[inst_name]
            module = design.module_of(inst)
            local_values = {
                port: values[inst.net_of(port)] for port in module.inputs
            }
            out_values = module.network.output_values(local_values)
            for port in module.outputs:
                net = inst.net_of(port)
                values[net] = out_values[port]
                inputs, tuples = self.conditional_tuples(
                    inst.module_name, port, local_values
                )
                best = POS_INF
                for tup in tuples:
                    worst = NEG_INF
                    for x, d in zip(inputs, tup):
                        if d == NEG_INF:
                            continue
                        term = times[inst.net_of(x)] + d
                        if term > worst:
                            worst = term
                    best = min(best, worst)
                times[net] = best
        output_times = {o: times[o] for o in design.outputs}
        return ConditionalResult(
            net_values=values,
            net_times=times,
            output_times=output_times,
            delay=max(output_times.values()) if output_times else NEG_INF,
            elapsed_seconds=time.perf_counter() - start,
        )

    def worst_case_by_enumeration(
        self, arrival: Mapping[str, float] | None = None, max_inputs: int = 14
    ) -> tuple[float, dict[str, bool]]:
        """Exact circuit delay = max over all vectors (validation helper).

        Exponential in the top-level input count; returns the delay and a
        witnessing worst-case vector.
        """
        inputs = self.design.inputs
        if len(inputs) > max_inputs:
            raise AnalysisError(
                f"enumeration over {len(inputs)} inputs exceeds "
                f"max_inputs={max_inputs}"
            )
        worst = NEG_INF
        witness: dict[str, bool] = {}
        for vec in all_vectors(inputs):
            delay = self.analyze(vec, arrival).delay
            if delay > worst:
                worst = delay
                witness = dict(vec)
        return worst, witness
