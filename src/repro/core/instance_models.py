"""Per-instance timing characterization (paper footnote 6).

"Even under a load-independent delay model, timing characterization can be
done for each instance so that the SDC/ODC at the inputs of the instance is
taken care of.  This yields a more accurate customized timing model."

The satisfiability don't-cares (SDC) of an instance are the module-input
vectors the surrounding logic can never produce.  This module derives the
*care network* of an instance — the transitive-fanin logic of its input
nets in the flattened design, re-exposed with outputs named after the
module's ports — and characterizes the instance with stability required
only over the care image.  Vectors outside the image may stay unstable
forever, which can only loosen (never tighten incorrectly) the model:
during real operation those vectors never occur, so the customized model
remains conservative w.r.t. flat analysis of the whole design.

Timing *correlations* between instance inputs are deliberately not
exploited (only value correlations), keeping the model valid under any
arrival condition at the instance boundary.
"""

from __future__ import annotations

from repro.core.hier import HierarchicalAnalyzer
from repro.core.timing_model import TimingModel
from repro.errors import AnalysisError
from repro.netlist.hierarchy import HierDesign, Instance
from repro.netlist.network import Network
from repro.resilience.policy import Deadline

#: Prefix applied to copied driver-logic signals inside care networks so
#: they can never collide with module port names.
_CARE_PREFIX = "care$"


def instance_care_network(
    design: HierDesign,
    instance: Instance | str,
    flat: Network | None = None,
) -> Network:
    """The care network of one instance.

    Inputs are (renamed copies of) the top-level PIs feeding the instance;
    outputs are named exactly after the module's input ports and compute
    the values those ports can take.  Ports fed by unconstrained top-level
    PIs become free pass-throughs.
    """
    if isinstance(instance, str):
        instance = design.instances[instance]
    module = design.module_of(instance)
    if flat is None:
        flat = design.flatten()
    port_nets = {port: instance.net_of(port) for port in module.inputs}
    cone_signals = flat.transitive_fanin(port_nets.values())
    care = Network(f"{design.name}.{instance.name}.care")
    rename: dict[str, str] = {}
    for x in flat.inputs:
        if x in cone_signals:
            rename[x] = care.add_input(f"{_CARE_PREFIX}{x}")
    for s in flat.topological_order():
        if s not in cone_signals or flat.is_input(s):
            continue
        g = flat.gate(s)
        rename[s] = care.add_gate(
            f"{_CARE_PREFIX}{s}",
            g.gtype,
            [rename[f] for f in g.fanins],
            g.delay,
        )
    for port, net in port_nets.items():
        care.add_gate(port, "BUF", [rename[net]], 0.0)
    care.set_outputs(list(module.inputs))
    return care


def _restrict_care(care: Network, outputs: tuple[str, ...]) -> Network:
    """Care network restricted to the ports a single cone actually reads."""
    restricted = Network(care.name)
    keep = care.transitive_fanin(outputs)
    for x in care.inputs:
        if x in keep:
            restricted.add_input(x)
    for s in care.topological_order():
        if s in keep and not care.is_input(s):
            g = care.gate(s)
            restricted.add_gate(g.name, g.gtype, g.fanins, g.delay)
    restricted.set_outputs(list(outputs))
    return restricted


class PerInstanceAnalyzer(HierarchicalAnalyzer):
    """Hierarchical analyzer with per-instance SDC-aware models.

    Trades the module-level model sharing of the base analyzer (each
    instance is characterized separately, against its own care set) for
    accuracy — the refinement the paper's footnote 6 describes.

    Step 1 flattens the design once and sends every instance's cones to
    the runner (:func:`~repro.library.scheduler.characterize_cones`),
    owned by the instance and never through a model library.  ``jobs``,
    the run deadline and the fault plan apply as for module models: a
    failed or late cone keeps its output's topological model, recorded
    on :attr:`dlog` under ``instance:output``.
    """

    def __init__(self, design: HierDesign, **kwargs):
        super().__init__(design, **kwargs)
        self._instance_models: dict[str, dict[str, TimingModel]] = {}

    def models_for_instance(self, inst_name: str) -> dict[str, TimingModel]:
        """SDC-aware models of one instance (Step 1 runs for every
        instance on first use)."""
        if inst_name not in self.design.instances:
            raise AnalysisError(f"unknown instance {inst_name!r}")
        self._ensure_models()
        return self._instance_models[inst_name]

    def _ensure_models(self):
        """Hook override: characterize every instance (not module).

        ``analyze``/``compile``/``analyze_batch`` on the base class call
        this before propagating; reporting every instance name keeps the
        pre-hook ``characterized_modules`` behavior of this analyzer.
        """
        from repro.library.scheduler import Cone, characterize_cones

        order = tuple(self.design.instance_order())
        missing = [n for n in order if n not in self._instance_models]
        if not missing:
            return order
        flat = self.design.flatten()
        cones = []
        for inst_name in missing:
            network = self.design.module_of(inst_name).network
            care = instance_care_network(self.design, inst_name, flat)
            cones.extend(
                Cone(
                    inst_name,
                    network,
                    output,
                    _restrict_care(care, network.extract_cone(output).inputs),
                )
                for output in network.outputs
            )
        characterized = characterize_cones(
            cones, self.options, self.dlog, Deadline(self.options.deadline)
        )
        for inst_name in missing:
            models, _seconds = characterized.get(inst_name, ({}, None))
            self._instance_models[inst_name] = models
        return order

    def _models_of_instance(self, inst_name):
        """Hook override: per-instance SDC-aware models.

        :meth:`compile` bakes each instance's customized model into
        the plan.
        """
        return self._instance_models[inst_name]
