"""Hierarchical designs: leaf modules connected at a single top level.

Matches the paper's setting (Section 3): hierarchy depth 1, no glue logic at
the top level, and an acyclic instance graph.  A :class:`Module` wraps a flat
:class:`~repro.netlist.network.Network`; a :class:`HierDesign` instantiates
modules and wires their ports to top-level nets.  ``flatten()`` produces the
equivalent flat network used by the flat-analysis baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import NetlistError
from repro.netlist.network import Network


@dataclass(frozen=True)
class Module:
    """A leaf module: a named flat network used as a component."""

    name: str
    network: Network

    @property
    def inputs(self) -> tuple[str, ...]:
        """Module input port names."""
        return self.network.inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        """Module output port names."""
        return self.network.outputs


@dataclass(frozen=True)
class Instance:
    """One instantiation of a module.

    ``connections`` maps every module port (input and output) to a top-level
    net name.
    """

    name: str
    module_name: str
    connections: Mapping[str, str]

    def net_of(self, port: str) -> str:
        """Top-level net attached to ``port``."""
        try:
            return self.connections[port]
        except KeyError:
            raise NetlistError(
                f"instance {self.name!r}: port {port!r} is unconnected"
            ) from None


class HierDesign:
    """A depth-1 hierarchical combinational design."""

    def __init__(self, name: str = "design"):
        self.name = name
        self._modules: dict[str, Module] = {}
        self._instances: dict[str, Instance] = {}
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._outputs: list[str] = []
        self._order_cache: list[str] | None = None
        #: Bumped by :meth:`replace_module`, so caches can tell an edit.
        self.revision = 0

    # ------------------------------------------------------------------ build
    def add_module(self, module: Module) -> Module:
        """Register a module definition."""
        if module.name in self._modules:
            raise NetlistError(f"duplicate module {module.name!r}")
        self._modules[module.name] = module
        self._order_cache = None
        return module

    def add_input(self, net: str) -> str:
        """Declare a top-level primary input net."""
        if net in self._input_set:
            raise NetlistError(f"duplicate top-level input {net!r}")
        self._inputs.append(net)
        self._input_set.add(net)
        self._order_cache = None
        return net

    def add_instance(
        self, name: str, module_name: str, connections: Mapping[str, str]
    ) -> Instance:
        """Instantiate ``module_name`` with the given port→net map."""
        if name in self._instances:
            raise NetlistError(f"duplicate instance {name!r}")
        if module_name not in self._modules:
            raise NetlistError(f"unknown module {module_name!r}")
        module = self._modules[module_name]
        conns = dict(connections)
        for port in (*module.inputs, *module.outputs):
            if port not in conns:
                raise NetlistError(
                    f"instance {name!r}: port {port!r} of module "
                    f"{module_name!r} is unconnected"
                )
        extra = set(conns) - set(module.inputs) - set(module.outputs)
        if extra:
            raise NetlistError(
                f"instance {name!r}: unknown ports {sorted(extra)!r}"
            )
        inst = Instance(name, module_name, conns)
        self._instances[name] = inst
        self._order_cache = None
        return inst

    def set_outputs(self, nets: Iterable[str]) -> None:
        """Declare the top-level primary output nets."""
        self._outputs = list(nets)

    def replace_module(self, module_name: str, new_network: Network) -> Module:
        """Swap one module's implementation (an ECO edit).

        The replacement must keep the same port interface so existing
        instances stay wired; connectivity and instance order are
        unchanged, which is why Section 3.3's incremental re-analysis
        only ever re-characterizes the edited module.
        """
        old = self._modules.get(module_name)
        if old is None:
            raise NetlistError(f"unknown module {module_name!r}")
        if set(old.inputs) != set(new_network.inputs) or set(
            old.outputs
        ) != set(new_network.outputs):
            raise NetlistError(
                f"module {module_name!r}: replacement changes the interface"
            )
        module = Module(module_name, new_network)
        self._modules[module_name] = module
        self.revision += 1
        return module

    # ------------------------------------------------------------------ query
    @property
    def inputs(self) -> tuple[str, ...]:
        """Top-level primary input nets."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Top-level primary output nets."""
        return tuple(self._outputs)

    @property
    def modules(self) -> Mapping[str, Module]:
        """Registered module definitions by name."""
        return self._modules

    @property
    def instances(self) -> Mapping[str, Instance]:
        """Instances by name."""
        return self._instances

    def module_of(self, inst: Instance | str) -> Module:
        """Module definition of an instance (by object or name)."""
        if isinstance(inst, str):
            inst = self._instances[inst]
        return self._modules[inst.module_name]

    def net_drivers(self) -> dict[str, tuple[str, str]]:
        """Map net → (instance name, output port) for instance-driven nets."""
        drivers: dict[str, tuple[str, str]] = {}
        for inst in self._instances.values():
            module = self.module_of(inst)
            for port in module.outputs:
                net = inst.net_of(port)
                if net in drivers or net in self._input_set:
                    raise NetlistError(f"net {net!r} has multiple drivers")
                drivers[net] = (inst.name, port)
        return drivers

    def validate(self) -> None:
        """Check single-driver nets, driven outputs, and acyclicity."""
        drivers = self.net_drivers()
        for inst in self._instances.values():
            module = self.module_of(inst)
            for port in module.inputs:
                net = inst.net_of(port)
                if net not in drivers and net not in self._input_set:
                    raise NetlistError(
                        f"instance {inst.name!r}: input net {net!r} "
                        "is undriven"
                    )
        for net in self._outputs:
            if net not in drivers and net not in self._input_set:
                raise NetlistError(f"output net {net!r} is undriven")
        self.instance_order()  # raises on cycles

    def instance_order(self) -> list[str]:
        """Instance names in topological order (drivers before sinks)."""
        if self._order_cache is not None:
            return self._order_cache
        drivers = self.net_drivers()
        indeg: dict[str, int] = {}
        succs: dict[str, set[str]] = {n: set() for n in self._instances}
        for inst in self._instances.values():
            module = self.module_of(inst)
            preds = set()
            for port in module.inputs:
                net = inst.net_of(port)
                if net in drivers:
                    driver_inst, _ = drivers[net]
                    if driver_inst != inst.name:
                        preds.add(driver_inst)
            indeg[inst.name] = len(preds)
            for p in preds:
                succs[p].add(inst.name)
        queue = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while queue:
            n = queue.pop()
            order.append(n)
            for s in succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        if len(order) != len(self._instances):
            raise NetlistError(
                f"design {self.name!r}: instance graph has a cycle"
            )
        self._order_cache = order
        return order

    # -------------------------------------------------------------- transform
    def flatten(self, name: str | None = None, separator: str = ".") -> Network:
        """Expand the hierarchy into an equivalent flat :class:`Network`.

        Internal signals of instance ``I`` are renamed ``I<separator><sig>``;
        module ports disappear in favour of the top-level nets they connect
        to (output ports become a BUF of delay 0 driving the net, so net
        names are preserved for the comparison experiments).
        """
        self.validate()
        flat = Network(name or f"{self.name}.flat")
        for net in self._inputs:
            flat.add_input(net)
        for inst_name in self.instance_order():
            inst = self._instances[inst_name]
            module = self.module_of(inst)
            net_of_sig: dict[str, str] = {}
            for port in module.inputs:
                net_of_sig[port] = inst.net_of(port)
            body = module.network
            for sig in body.topological_order():
                if body.is_input(sig):
                    continue
                g = body.gate(sig)
                new_name = f"{inst_name}{separator}{sig}"
                net_of_sig[sig] = new_name
                flat.add_gate(
                    new_name,
                    g.gtype,
                    tuple(net_of_sig[f] for f in g.fanins),
                    g.delay,
                )
            for port in module.outputs:
                net = inst.net_of(port)
                flat.add_gate(net, "BUF", (net_of_sig[port],), 0.0)
        flat.set_outputs(self._outputs)
        return flat

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HierDesign({self.name!r}, modules={len(self._modules)}, "
            f"instances={len(self._instances)})"
        )
