"""ISCAS ``.bench`` format reader/writer.

The classic ISCAS-85/89 textual netlist format::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G11 = NOT(G10)

Supported gate keywords: AND, OR, NAND, NOR, XOR, XNOR, NOT, BUF/BUFF,
MUX, CONST0/CONST1.  Gate delays are not part of the format; a delay policy
(default 1.0 per gate, 0 for BUF) is applied on read and can be overridden
afterwards with :meth:`~repro.netlist.network.Network.with_delays`.
"""

from __future__ import annotations

import io
import re
from typing import TextIO

from repro.errors import ParseError
from repro.netlist.gates import GateType
from repro.netlist.network import Network

_LINE = re.compile(
    r"^(?P<name>[^=\s]+)\s*=\s*(?P<op>[A-Za-z01]+)\s*\((?P<args>[^)]*)\)\s*$"
)
_DECL = re.compile(r"^(?P<kind>INPUT|OUTPUT)\s*\((?P<name>[^)\s]+)\)\s*$")

_OP_ALIASES = {
    "BUFF": "BUF",
    "DFF": None,  # sequential elements are rejected explicitly
}


def read_bench(stream: TextIO, name: str = "bench") -> Network:
    """Parse a ``.bench`` file into a :class:`Network`."""
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[tuple[str, str, list[str], int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        decl = _DECL.match(line)
        if decl:
            if decl.group("kind") == "INPUT":
                inputs.append(decl.group("name"))
            else:
                outputs.append(decl.group("name"))
            continue
        m = _LINE.match(line)
        if not m:
            raise ParseError(f"unrecognized line {line!r}", lineno)
        op = m.group("op").upper()
        op = _OP_ALIASES.get(op, op)
        if op is None:
            raise ParseError(
                "sequential elements (DFF) are not supported; the library "
                "analyzes combinational blocks between latches",
                lineno,
            )
        args = [a.strip() for a in m.group("args").split(",") if a.strip()]
        gates.append((m.group("name"), op, args, lineno))

    net = Network(name)
    for x in inputs:
        net.add_input(x)
    # Gates may reference signals defined later in the file: sort by
    # dependency with an explicit worklist.
    pending = list(gates)
    defined = set(inputs)
    progress = True
    while pending and progress:
        progress = False
        remaining = []
        for gname, op, args, lineno in pending:
            if all(a in defined for a in args):
                try:
                    gtype = GateType(op)
                except ValueError:
                    raise ParseError(f"unknown gate type {op!r}", lineno) from None
                delay = 0.0 if gtype in (
                    GateType.BUF, GateType.CONST0, GateType.CONST1
                ) else 1.0
                net.add_gate(gname, gtype, args, delay)
                defined.add(gname)
                progress = True
            else:
                remaining.append((gname, op, args, lineno))
        pending = remaining
    if pending:
        missing = sorted(
            {a for _, _, args, _ in pending for a in args if a not in defined}
        )
        raise ParseError(
            f"undefined signals (or combinational cycle): {missing[:5]!r}",
            pending[0][3],
        )
    for o in outputs:
        if not net.has_signal(o):
            raise ParseError(f"OUTPUT({o}) never defined")
    net.set_outputs(outputs)
    return net


def loads_bench(text: str, name: str = "bench") -> Network:
    """Parse ``.bench`` text."""
    return read_bench(io.StringIO(text), name)


def write_bench(network: Network, stream: TextIO) -> None:
    """Serialize a network in ``.bench`` format (delays are not recorded)."""
    stream.write(f"# {network.name}\n")
    for x in network.inputs:
        stream.write(f"INPUT({x})\n")
    for o in network.outputs:
        stream.write(f"OUTPUT({o})\n")
    for s in network.topological_order():
        if network.is_input(s):
            continue
        g = network.gate(s)
        op = "BUFF" if g.gtype is GateType.BUF else g.gtype.value
        stream.write(f"{g.name} = {op}({', '.join(g.fanins)})\n")


def dumps_bench(network: Network) -> str:
    """Serialize to a ``.bench`` string."""
    buf = io.StringIO()
    write_bench(network, buf)
    return buf.getvalue()
