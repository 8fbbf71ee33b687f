"""Seeded random multi-level logic with reconvergent fanout.

Used as an ISCAS-flavoured workload where the original benchmark netlists
are unavailable (see DESIGN.md, substitution table).  Generation is fully
deterministic per seed.
"""

from __future__ import annotations

import random

from repro.errors import NetlistError
from repro.netlist.network import Network

_GATE_POOL = ["AND", "OR", "NAND", "NOR", "XOR", "MUX", "NOT"]


def random_network(
    num_inputs: int,
    num_gates: int,
    seed: int = 0,
    num_outputs: int | None = None,
    locality: int = 12,
    name: str | None = None,
) -> Network:
    """Random reconvergent combinational DAG.

    Parameters
    ----------
    locality:
        Fanins are drawn from the most recent ``locality`` signals with
        high probability, yielding deep, reconvergent structure rather
        than a shallow random bipartite mess.
    """
    if num_inputs < 2:
        raise NetlistError("random_network needs at least 2 inputs")
    if num_gates < 1:
        raise NetlistError("random_network needs at least 1 gate")
    rng = random.Random(seed)
    net = Network(name or f"rand_i{num_inputs}_g{num_gates}_s{seed}")
    signals = [net.add_input(f"x{i}") for i in range(num_inputs)]

    def pick(count: int) -> list[str]:
        chosen: list[str] = []
        while len(chosen) < count:
            if len(signals) > locality and rng.random() < 0.75:
                cand = signals[-rng.randint(1, locality)]
            else:
                cand = rng.choice(signals)
            if cand not in chosen:
                chosen.append(cand)
        return chosen

    for idx in range(num_gates):
        gtype = rng.choice(_GATE_POOL)
        # pick() draws distinct fanins, so it must never be asked for
        # more than there are signals (only two, before the first gate
        # of a two-input network).
        if gtype == "MUX" and len(signals) < 3:
            gtype = "XOR"
        if gtype == "NOT":
            fanins = pick(1)
        elif gtype == "MUX":
            fanins = pick(3)
        elif gtype == "XOR":
            fanins = pick(2)
        else:
            fanins = pick(min(rng.randint(2, 3), len(signals)))
        delay = 2.0 if gtype in ("XOR", "MUX") else 1.0
        signals.append(net.add_gate(f"n{idx}", gtype, fanins, delay))

    if num_outputs is None:
        num_outputs = max(1, num_inputs // 4)
    # Prefer signals near the end (deepest); always include the last gate.
    fanout_counts: dict[str, int] = {s: 0 for s in signals}
    for g in net.gates.values():
        for f in g.fanins:
            fanout_counts[f] += 1
    sinks = [
        s for s in signals
        if not net.is_input(s) and fanout_counts[s] == 0
    ]
    outputs = list(dict.fromkeys(sinks))[: num_outputs]
    extra = [s for s in reversed(signals) if not net.is_input(s)]
    for s in extra:
        if len(outputs) >= num_outputs:
            break
        if s not in outputs:
            outputs.append(s)
    net.set_outputs(outputs)
    return net
