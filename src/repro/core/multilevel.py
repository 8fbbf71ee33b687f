"""Multi-level hierarchies via timing-model composition.

Footnote 4 of the paper: "The analysis described here can be extended to
circuits with multi-level hierarchies."  This module supplies the missing
piece: characterizing a whole depth-1 :class:`HierDesign` into timing
models over *its* inputs, so the design can itself become a leaf module of
a larger design — hierarchies of any depth by induction.

Composition is exact min-max algebra: a net's model is a set of delay
tuples over the design inputs; pushing it through an instance output with
module tuples ``D`` yields, for every ``d in D`` and every independent
choice of one tuple per connected input net, the elementwise-max
combination.  Because tuple choices are independent per input, evaluating
the composed model reproduces step-2 hierarchical propagation *exactly*;
pruning dominated tuples loses nothing, and capping the tuple set only
drops alternatives (conservative — certified stable times can only get
later, never earlier).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.hier import HierarchicalAnalyzer
from repro.core.ipblock import black_box_module
from repro.core.timing_model import (
    NEG_INF,
    DelayTuple,
    TimingModel,
    prune_dominated,
)
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign, Module


def _combine(
    module_tuple: DelayTuple,
    input_tuples: list[tuple[DelayTuple, ...]],
    width: int,
) -> list[DelayTuple]:
    """All combinations of one tuple per constrained input, max-merged."""
    results: list[list[float]] = [[NEG_INF] * width]
    for d, choices in zip(module_tuple, input_tuples):
        if d == NEG_INF:
            continue
        expanded: list[list[float]] = []
        for base in results:
            for choice in choices:
                merged = list(base)
                for i, t in enumerate(choice):
                    if t == NEG_INF:
                        continue
                    candidate = t + d
                    if candidate > merged[i]:
                        merged[i] = candidate
                expanded.append(merged)
        results = expanded
        if len(results) > 4096:
            raise AnalysisError(
                "tuple combination blow-up; lower max_tuples or restructure"
            )
    return [tuple(r) for r in results]


def compose_design_models(
    design: HierDesign, max_tuples: int = 8
) -> dict[str, TimingModel]:
    """Timing models of every design output, over the design inputs.

    ``max_tuples`` caps the composed tuples of every net (leaf modules
    keep their own characterization budget).
    """
    analyzer = HierarchicalAnalyzer(design)
    inputs = design.inputs
    width = len(inputs)
    index = {x: i for i, x in enumerate(inputs)}
    net_tuples: dict[str, tuple[DelayTuple, ...]] = {}
    for x in inputs:
        unit = [NEG_INF] * width
        unit[index[x]] = 0.0
        net_tuples[x] = (tuple(unit),)
    for inst_name in design.instance_order():
        inst = design.instances[inst_name]
        module = design.module_of(inst)
        models = analyzer.models_for(inst.module_name)
        local_inputs = module.inputs
        input_sets = [
            net_tuples[inst.net_of(port)] for port in local_inputs
        ]
        for port in module.outputs:
            model = models[port]
            if tuple(model.inputs) != tuple(local_inputs):
                raise AnalysisError(
                    f"model for {inst.module_name}.{port} misaligned"
                )
            composed: list[DelayTuple] = []
            for module_tuple in model.tuples:
                composed.extend(
                    _combine(module_tuple, input_sets, width)
                )
            pruned = prune_dominated(composed)[:max_tuples]
            if not pruned:
                pruned = (tuple([NEG_INF] * width),)
            net_tuples[inst.net_of(port)] = pruned
    out_models: dict[str, TimingModel] = {}
    for out in design.outputs:
        if out not in net_tuples:
            raise AnalysisError(f"output net {out!r} undriven")
        out_models[out] = TimingModel(out, inputs, net_tuples[out])
    return out_models


def design_as_module(
    design: HierDesign, name: str | None = None
) -> tuple[Module, dict[str, TimingModel]]:
    """Package a whole design as a leaf module for a higher level.

    Returns an opaque stub module plus the composed models, ready for
    :meth:`HierarchicalAnalyzer.preload_models` — the mechanism that turns
    depth-1 analysis into arbitrary-depth analysis.
    """
    models = compose_design_models(design)
    return black_box_module(
        name or design.name, design.inputs, design.outputs, models
    )


def evaluate_composed(
    models: Mapping[str, TimingModel],
    arrival: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Stable time of each modeled output under an arrival condition."""
    arrival = arrival or {}
    return {
        out: model.stable_time(arrival) for out, model in models.items()
    }
