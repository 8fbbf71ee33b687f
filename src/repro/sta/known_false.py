"""Topological timing analysis with known-false annotations.

Belkhale and Suess (paper reference [1]) perform topological analysis
under *designer-supplied* false-subgraph information.  The paper positions
its required-time characterization as "a way of automating this process" —
the annotations are exactly effective pin-to-pin delays, which a designer
would otherwise assert by hand (and, as the paper warns, such manual
assertions are only correct relative to arrival-time assumptions).

This module provides the baseline: an annotated topological analyzer over
a :class:`HierDesign` timing graph whose pin-pair weights can be
overridden, plus a bridge that derives provably safe annotations from
XBD0 timing models.  It exists for the comparison benches and to document
the relationship to [1]; the demand-driven analyzer supersedes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.timing_model import TimingModel
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign
from repro.sta.topological import pin_to_pin_delays

NEG_INF = float("-inf")

#: (module name, input port, output port) → asserted effective delay.
Annotations = Mapping[tuple[str, str, str], float]


@dataclass
class AnnotatedResult:
    """Outcome of an annotated topological analysis."""

    net_times: dict[str, float]
    output_times: dict[str, float]
    delay: float
    #: Pin pairs whose annotation actually changed the default weight.
    applied: tuple[tuple[str, str, str], ...]


class KnownFalseAnalyzer:
    """Topological timing-graph analysis with pin-pair delay assertions.

    Assertions are trusted verbatim, exactly as in [1]: a wrong assertion
    gives a wrong (optimistic) answer.  Use
    :func:`annotations_from_models` to derive safe ones.
    """

    def __init__(self, design: HierDesign):
        design.validate()
        self.design = design
        self._defaults: dict[tuple[str, str, str], float] = {}
        for name, module in design.modules.items():
            delays = {
                inp: pin_to_pin_delays(module.network, inp)
                for inp in module.inputs
            }
            for out in module.outputs:
                for inp in module.inputs:
                    w = delays[inp].get(out, NEG_INF)
                    if w != NEG_INF:
                        self._defaults[(name, inp, out)] = w

    def analyze(
        self,
        annotations: Annotations | None = None,
        arrival: Mapping[str, float] | None = None,
    ) -> AnnotatedResult:
        """Forward propagation with annotated weights."""
        annotations = dict(annotations or {})
        for key, value in annotations.items():
            if key not in self._defaults and value != NEG_INF:
                # asserting a delay on a pair with no topological path is
                # a likely typo; a -inf assertion is a harmless no-op
                raise AnalysisError(
                    f"annotation {key!r} names a nonexistent pin pair"
                )
        design = self.design
        arrival = arrival or {}
        times: dict[str, float] = {
            x: float(arrival.get(x, 0.0)) for x in design.inputs
        }
        applied = []
        for inst_name in design.instance_order():
            inst = design.instances[inst_name]
            module = design.module_of(inst)
            for out in module.outputs:
                worst = NEG_INF
                for inp in module.inputs:
                    key = (inst.module_name, inp, out)
                    weight = annotations.get(key, self._defaults.get(key))
                    if weight is None or weight == NEG_INF:
                        continue
                    src = times[inst.net_of(inp)]
                    if src == NEG_INF:
                        continue
                    worst = max(worst, src + weight)
                times[inst.net_of(out)] = worst
        for key, value in annotations.items():
            if value != self._defaults.get(key, NEG_INF):
                applied.append(key)
        output_times = {o: times[o] for o in design.outputs}
        return AnnotatedResult(
            net_times=times,
            output_times=output_times,
            delay=max(output_times.values()) if output_times else NEG_INF,
            applied=tuple(sorted(applied)),
        )


def annotations_from_models(
    models_by_module: Mapping[str, Mapping[str, TimingModel]],
) -> dict[tuple[str, str, str], float]:
    """Safe annotations from XBD0 timing models (the paper's automation).

    For every pin pair, the asserted effective delay is the model's worst
    delay from that input — valid under *any* arrival condition, unlike
    hand-written false-path assertions.

    Note the information loss: a single number per pin pair cannot express
    the tuple structure, so the annotated analysis can be looser than full
    hierarchical analysis (but never optimistic w.r.t. it).
    """
    out: dict[tuple[str, str, str], float] = {}
    for module_name, models in models_by_module.items():
        for output, model in models.items():
            for inp in model.inputs:
                out[(module_name, inp, output)] = model.delay_from(inp)
    return out
