"""Input timing budgets — the motivating application of reference [4].

"This new required time analysis leads to looser timing requirements at
primary inputs, which can then relax the timing constraint of the circuit
that drives the inputs."

Given required times at the primary outputs, compute a set of
*budget tuples* at the primary inputs: each tuple is a vector of latest
safe arrival times, valid for **all** outputs simultaneously.  Per output
the characterized timing model offers alternative tuples; combining
outputs takes the elementwise min over one choice per output, and the set
of combinations (pruned to maximal, capped) preserves the alternatives.
The topological budget (a single tuple) is always dominated-or-equal, so
the driver of each input gains ``budget - topological_budget`` slack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from repro.core.required import characterize_network
from repro.core.timing_model import POS_INF, TimingModel, maximal_tuples
from repro.errors import AnalysisError
from repro.netlist.network import Network
from repro.sta.topological import required_times


@dataclass(frozen=True)
class InputBudget:
    """Result of a budgeting run."""

    inputs: tuple[str, ...]
    #: Maximal valid arrival-time tuples (alternatives; any one is safe).
    tuples: tuple[tuple[float, ...], ...]
    #: The single topological tuple (always valid, never looser).
    topological: tuple[float, ...]

    def slack_gain(self) -> dict[str, float]:
        """Best extra slack per input over the topological budget.

        Reads each input's loosest value across the alternative tuples —
        useful for spotting *which* driver could be relaxed; to relax
        several inputs at once, pick one tuple and use it wholesale.
        """
        gains: dict[str, float] = {}
        for i, x in enumerate(self.inputs):
            best = max(t[i] for t in self.tuples)
            base = self.topological[i]
            if best == POS_INF:
                gains[x] = POS_INF
            elif base == POS_INF:  # pragma: no cover - base is loosest
                gains[x] = 0.0
            else:
                gains[x] = best - base
        return gains


def input_budgets(
    network: Network,
    required: Mapping[str, float],
    max_tuples: int = 8,
    models: Mapping[str, TimingModel] | None = None,
) -> InputBudget:
    """Functional input budgets for the given output required times.

    ``required`` maps each primary output to its deadline (outputs left
    out are unconstrained).  ``models`` may supply pre-characterized
    timing models (aligned to ``network.inputs``) to reuse.
    """
    unknown = [o for o in required if o not in network.outputs]
    if unknown:
        raise AnalysisError(f"unknown outputs {unknown!r}")
    if not required:
        raise AnalysisError("no output constraints given")
    if models is None:
        models = characterize_network(network)
    inputs = network.inputs
    # Per constrained output: its alternative required-time tuples.
    per_output: list[tuple[tuple[float, ...], ...]] = []
    for out, deadline in required.items():
        per_output.append(models[out].required_tuples(float(deadline)))
    # Combine: one tuple per output, elementwise min.
    combos: list[tuple[float, ...]] = []
    total = 1
    for alternatives in per_output:
        total *= len(alternatives)
        if total > 4096:
            raise AnalysisError(
                "budget combination blow-up; lower max_tuples"
            )
    for choice in itertools.product(*per_output):
        merged = [POS_INF] * len(inputs)
        for tup in choice:
            for i, v in enumerate(tup):
                if v < merged[i]:
                    merged[i] = v
        combos.append(tuple(merged))
    topo = required_times(network, dict(required))
    topological = tuple(topo[x] for x in inputs)
    return InputBudget(
        inputs=inputs,
        tuples=maximal_tuples(combos, max_tuples),
        topological=topological,
    )
