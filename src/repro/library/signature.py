"""Canonical structural signatures for networks and modules.

The cache key of the persistent model library (Section 3.1's premise: a
leaf module's timing model depends only on the module itself, never on
its environment).  Two requirements shape the design:

* **Name independence** — re-running a generator, renaming an instance,
  or re-emitting a netlist with different internal signal names must not
  invalidate cached models.  Signals are therefore labelled by *position*
  (inputs) or by *structure* (gates: type, delay, and fanin labels), so
  any renaming that preserves port order and connectivity hashes
  identically.  Stored models are positional for the same reason; the
  store re-keys them to the requesting module's port names on load.
* **Parameter sensitivity** — a model characterized with a different
  engine is a different artifact, so the per-cone engine
  (:data:`~repro.core.xbd0.CONE_ENGINE`) is folded into the key
  (:func:`module_signature`), next to the fixed relaxation budgets of
  Step 1 (:func:`~repro.core.required.characterize_output`'s
  ``max_orders=4`` and ``max_tuples=8``).

Only the output cones matter: gates that reach no output do not affect
any timing model and are excluded from the hash.
"""

from __future__ import annotations

import hashlib

from repro.core import xbd0
from repro.netlist.hierarchy import Module
from repro.netlist.network import Network

#: Bump when the canonical-form computation changes incompatibly.
SIGNATURE_VERSION = 1


def _canonical_labels(network: Network) -> dict[str, str]:
    """Structural label per signal, independent of signal names.

    Inputs are labelled by their declaration index; every gate by a hash
    of its type, delay, and (ordered) fanin labels.  Fanin order is kept
    as-is — some primitives (MUX) are not commutative, and keeping order
    is always sound for a cache key (at worst it misses an equivalence).
    """
    labels: dict[str, str] = {}
    for i, x in enumerate(network.inputs):
        labels[x] = f"i{i}"
    for sig in network.topological_order():
        if network.is_input(sig):
            continue
        gate = network.gate(sig)
        payload = "|".join(
            [gate.gtype.value, repr(float(gate.delay))]
            + [labels[f] for f in gate.fanins]
        )
        labels[sig] = hashlib.sha256(payload.encode()).hexdigest()[:24]
    return labels


def network_signature(network: Network) -> str:
    """Canonical structural hash of a network's output cones.

    Stable under internal signal renaming, gate insertion order, and
    port renaming (ports are positional); sensitive to gate types,
    delays, connectivity, input arity, and output order.
    """
    labels = _canonical_labels(network)
    payload = "\n".join(
        [
            f"repro-signature-v{SIGNATURE_VERSION}",
            f"inputs={len(network.inputs)}",
            *(labels[o] for o in network.outputs),
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def module_signature(module: Module | Network) -> str:
    """Cache key: structural hash combined with characterization knobs.

    The per-cone engine (:data:`~repro.core.xbd0.CONE_ENGINE`, read at
    call time; text ``engine=sat``) participates because tautology
    engines may differ in cost, never in result — but an
    engine-qualified key keeps a library written under another engine
    apart.  The relaxation budgets are fixed (``max_orders=4``,
    ``max_tuples=8``) but stay in the hashed text, so keys written
    before they were fixed still match.
    """
    network = module.network if isinstance(module, Module) else module
    payload = "\n".join(
        [
            network_signature(network),
            f"engine={xbd0.CONE_ENGINE}",
            "max_orders=4",
            "max_tuples=8",
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()
