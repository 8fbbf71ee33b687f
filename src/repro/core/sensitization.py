"""Path sensitization criteria ladder.

The paper's Section 1 situates XBD0 among the classical criteria: *static
sensitization* under-approximates true delay (the basis of the Yalcin-Hayes
experiments the paper critiques), *static co-sensitization* (Devadas,
Keutzer, Malik) over-approximates it, and the XBD0/floating-mode delay sits
in between::

    static  ≤  XBD0 (floating)  ≤  co-sensitization  ≤  topological

This module implements the per-vector dynamic programs for the two
classical criteria (brute-forced over vectors — they exist for ablation
benches and property tests, not for scale):

* **static sensitization** — input ``u`` of a gate may propagate iff the
  gate output actually depends on ``u`` under the vector (boolean
  difference = 1); the delay of a vector is the longest chain of such
  dependencies.
* **static co-sensitization** — input ``u`` may propagate iff ``u`` appears
  in some prime implicant (of the phase matching the output value)
  satisfied by the vector; a necessary condition for event propagation,
  hence an upper bound.
"""

from __future__ import annotations

from typing import Literal as TypingLiteral
from typing import Mapping

from repro.core.xbd0 import StabilityAnalyzer
from repro.errors import AnalysisError
from repro.netlist.gates import evaluate, satisfied_primes
from repro.netlist.network import Network
from repro.sim.vectors import all_vectors
from repro.sta.topological import arrival_times

NEG_INF = float("-inf")

Criterion = TypingLiteral["topological", "static", "cosens", "xbd0"]


def _vector_arrival_dp(
    network: Network,
    vector: Mapping[str, bool],
    arrival: Mapping[str, float] | None,
    eligible_fn,
) -> dict[str, float]:
    """Shared per-vector DP: arr(g) = d + max over eligible fanins."""
    arrival = arrival or {}
    values = network.evaluate(vector)
    arr: dict[str, float] = {}
    for x in network.inputs:
        arr[x] = float(arrival.get(x, 0.0))
    for s in network.topological_order():
        if s in arr:
            continue
        g = network.gate(s)
        fanin_values = tuple(values[f] for f in g.fanins)
        best = NEG_INF
        for idx, f in enumerate(g.fanins):
            if arr[f] == NEG_INF:
                continue
            if eligible_fn(g.gtype, fanin_values, idx):
                best = max(best, arr[f])
        arr[s] = best + g.delay if best != NEG_INF else NEG_INF
    return arr


def _statically_sensitized(gtype, fanin_values: tuple[bool, ...], idx: int) -> bool:
    """Boolean difference: does flipping input ``idx`` flip the output?"""
    flipped = list(fanin_values)
    flipped[idx] = not flipped[idx]
    return evaluate(gtype, fanin_values) != evaluate(gtype, tuple(flipped))


def _cosensitized(gtype, fanin_values: tuple[bool, ...], idx: int) -> bool:
    """Does input ``idx`` appear in some satisfied prime of the right phase?"""
    for prime in satisfied_primes(gtype, len(fanin_values), fanin_values):
        if any(i == idx for i, _ in prime):
            return True
    return False


def static_sensitization_delay(
    network: Network,
    output: str,
    arrival: Mapping[str, float] | None = None,
    max_support: int = 16,
) -> float:
    """Delay of ``output`` under static sensitization (brute force)."""
    return _brute_criterion(
        network, output, arrival, _statically_sensitized, max_support
    )


def cosensitization_delay(
    network: Network,
    output: str,
    arrival: Mapping[str, float] | None = None,
    max_support: int = 16,
) -> float:
    """Delay of ``output`` under static co-sensitization (brute force)."""
    return _brute_criterion(
        network, output, arrival, _cosensitized, max_support
    )


def _brute_criterion(
    network: Network,
    output: str,
    arrival: Mapping[str, float] | None,
    eligible_fn,
    max_support: int,
) -> float:
    cone = network.extract_cone(output)
    if len(cone.inputs) > max_support:
        raise AnalysisError(
            f"brute-force criterion over {len(cone.inputs)} inputs exceeds "
            f"max_support={max_support}"
        )
    worst = NEG_INF
    for vec in all_vectors(cone.inputs):
        arr = _vector_arrival_dp(cone, vec, arrival, eligible_fn)
        worst = max(worst, arr[output])
    return worst


def delay_by_criterion(
    network: Network,
    output: str,
    criterion: Criterion,
    arrival: Mapping[str, float] | None = None,
) -> float:
    """Dispatch: delay of ``output`` under the named criterion.

    ``"xbd0"`` checks the output's cone on
    :data:`~repro.core.xbd0.CONE_ENGINE`, like every per-cone check.
    """
    if criterion == "topological":
        return arrival_times(network, arrival)[output]
    if criterion == "static":
        return static_sensitization_delay(network, output, arrival)
    if criterion == "cosens":
        return cosensitization_delay(network, output, arrival)
    if criterion == "xbd0":
        analyzer = StabilityAnalyzer(network, arrival)
        return analyzer.functional_delay(output)
    raise AnalysisError(f"unknown criterion {criterion!r}")
