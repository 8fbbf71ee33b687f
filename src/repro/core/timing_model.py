"""Timing models: sets of timing tuples per module output.

Section 3.1 of the paper characterizes each output ``z`` of a leaf module by
a set of *timing tuples*.  In required-time space a tuple
``t = (t_1, ..., t_n)`` says "if input ``i`` arrives at or before ``t_i``
for all ``i``, then ``z`` is stable by the required time 0".  Negating the
entries gives an equivalent vector of *effective delays*
``d_i = -t_i`` — the representation used here because it composes directly
with arrival times:

    ``stable(z) = min over tuples of max_i (arrival_i + d_i)``

(the paper's min-max propagation, Section 3.2).  ``d_i = -inf`` means input
``i`` is unconstrained ("the stability of the corresponding input is not
even required", rendered ∞ in required-time space).  A model may keep
several pairwise *incomparable* tuples; dominated tuples (elementwise ≥
another) are pruned without accuracy loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.errors import AnalysisError

NEG_INF = float("-inf")
POS_INF = float("inf")

#: One timing tuple in delay space, aligned with the model's input order.
DelayTuple = tuple[float, ...]


def prune_dominated(tuples: Iterable[DelayTuple]) -> tuple[DelayTuple, ...]:
    """Keep only minimal elements under elementwise ≤ (smaller = looser).

    A tuple whose every delay is ≥ another tuple's is redundant: any
    arrival condition it certifies, the smaller tuple certifies at least as
    early a stable time for.

    Sort-then-sweep: a dominator is lexicographically smaller than
    anything it dominates, so sweeping in lexicographic order only ever
    compares a candidate against the *minimal* tuples found so far —
    O(n log n) for the sort plus O(n · |frontier|) for the sweep, and the
    frontier of pairwise-incomparable survivors is small in practice
    (models cap it at ``max_tuples``).  Survivors keep their first-seen
    input order, so truncations like ``prune_dominated(ts)[:k]`` are
    unaffected by the sweep order.
    """
    unique = list(dict.fromkeys(tuples))
    if len(unique) <= 1:
        return tuple(unique)
    frontier: list[DelayTuple] = []
    dominated: set[DelayTuple] = set()
    for cand in sorted(unique):
        for other in frontier:
            if all(o <= c for o, c in zip(other, cand)):
                # strict somewhere is guaranteed: equal tuples were
                # collapsed, and other ≠ cand with other ≤ cand.
                dominated.add(cand)
                break
        else:
            frontier.append(cand)
    return tuple(t for t in unique if t not in dominated)


def maximal_tuples(
    tuples: Iterable[DelayTuple], cap: int
) -> tuple[DelayTuple, ...]:
    """The first ``cap`` maximal tuples in required-time space (larger =
    looser), in descending order: :func:`prune_dominated` on the
    negated tuples."""
    kept = prune_dominated(tuple(-v for v in t) for t in tuples)
    return tuple(
        sorted((tuple(-v for v in t) for t in kept), reverse=True)[:cap]
    )


@dataclass(frozen=True)
class TimingModel:
    """Delay model of one module output.

    Attributes
    ----------
    output:
        Output port name.
    inputs:
        Module input port order the tuples are aligned with.
    tuples:
        Non-empty set of incomparable delay tuples.
    """

    output: str
    inputs: tuple[str, ...]
    tuples: tuple[DelayTuple, ...]

    def __post_init__(self) -> None:
        if not self.tuples:
            raise AnalysisError(f"model for {self.output!r} has no tuples")
        for t in self.tuples:
            if len(t) != len(self.inputs):
                raise AnalysisError(
                    f"model for {self.output!r}: tuple arity {len(t)} != "
                    f"{len(self.inputs)} inputs"
                )

    @staticmethod
    def topological(
        output: str, inputs: Sequence[str], delays: Mapping[str, float]
    ) -> "TimingModel":
        """Single-tuple model from pin-to-pin topological delays.

        Inputs missing from ``delays`` (no path) get ``-inf``.
        """
        tup = tuple(float(delays.get(x, NEG_INF)) for x in inputs)
        return TimingModel(output, tuple(inputs), (tup,))

    def pruned(self) -> "TimingModel":
        """Copy with dominated tuples removed."""
        return TimingModel(self.output, self.inputs, prune_dominated(self.tuples))

    def stable_time(self, arrival: Mapping[str, float]) -> float:
        """Paper's min-max propagation: earliest certified stable time.

        ``arrival`` maps input port → arrival time (missing ports default
        to 0.0).  Runs in O(n·|T|).
        """
        arrivals = [float(arrival.get(x, 0.0)) for x in self.inputs]
        best = POS_INF
        for tup in self.tuples:
            worst = NEG_INF
            for a, d in zip(arrivals, tup):
                if d == NEG_INF:
                    continue  # unconstrained input contributes nothing
                term = a + d
                if term > worst:
                    worst = term
            best = min(best, worst)
        return best

    def input_slack(self, arrival: Mapping[str, float], input_name: str) -> float:
        """Largest extra delay on one input leaving :meth:`stable_time` fixed.

        Section 4's "real slack": the paper reads it off the polygon —
        delaying ``c_in`` by 1 does not move ``c_out``.  For each tuple
        whose other inputs already meet the current stable time, the input
        can slip to ``T0 - d_k``; the best such tuple gives the slack.
        """
        if input_name not in self.inputs:
            raise AnalysisError(f"unknown input {input_name!r}")
        k = self.inputs.index(input_name)
        arrivals = [float(arrival.get(x, 0.0)) for x in self.inputs]
        t0 = self.stable_time(arrival)
        if t0 == POS_INF:
            return POS_INF
        best = NEG_INF
        for tup in self.tuples:
            others = NEG_INF
            for j, (a, d) in enumerate(zip(arrivals, tup)):
                if j == k or d == NEG_INF:
                    continue
                others = max(others, a + d)
            if others > t0:
                continue  # this tuple cannot certify T0 regardless of k
            if tup[k] == NEG_INF:
                return POS_INF
            best = max(best, t0 - (arrivals[k] + tup[k]))
        return best

    def delay_from(self, input_name: str) -> float:
        """Worst-case effective delay from one input: max over tuples.

        (A conservative single number; the tuple structure is what the
        hierarchical propagation actually uses.)
        """
        if input_name not in self.inputs:
            raise AnalysisError(f"unknown input {input_name!r}")
        k = self.inputs.index(input_name)
        return max(t[k] for t in self.tuples)

    def required_tuples(self, required: float = 0.0) -> tuple[DelayTuple, ...]:
        """The model in required-time space: ``t_i = required - d_i``."""
        out = []
        for tup in self.tuples:
            out.append(
                tuple(
                    POS_INF if d == NEG_INF else required - d for d in tup
                )
            )
        return tuple(out)

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "output": self.output,
            "inputs": list(self.inputs),
            "tuples": [list(t) for t in self.tuples],
        }

    @staticmethod
    def from_dict(data: dict) -> "TimingModel":
        """Inverse of :meth:`to_dict`."""
        return TimingModel(
            data["output"],
            tuple(data["inputs"]),
            tuple(tuple(float(v) for v in t) for t in data["tuples"]),
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(
            "(" + ", ".join(
                "-inf" if d == NEG_INF else f"{d:g}" for d in t
            ) + ")"
            for t in self.tuples
        )
        return f"T_{self.output}[{', '.join(self.inputs)}] = {{{rows}}}"
