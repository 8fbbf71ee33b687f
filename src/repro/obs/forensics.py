"""Conservatism audit: where did the topological bound go, and why.

Theorem 1 makes every hierarchical estimate a sound *upper* bound; the
demand-driven loop (Section 5) then tightens it by refining exactly the
critical edges.  This module records that tightening as data: a
:class:`ForensicsReport` lists, per primary output, the arrival under
the weights the run *started* with (the topological bound for a fresh
analyzer), the refined XBD0 arrival it ended with, and the ordered
:class:`RefinementEvent` chain that closed the gap.  Each event stores
the exact before/after arrival pair per moved output, so attribution is
checkable without float tolerance: consecutive events chain (one
event's ``after`` is the next one's ``before``) from the topological
arrival down to the refined arrival.

Built by :meth:`repro.core.demand.DemandDrivenAnalyzer.analyze` on
every run (tracing on or off — the record is pure observation) and
surfaced through
:meth:`~repro.core.demand.DemandDrivenAnalyzer.forensics_report`,
:meth:`repro.api.AnalysisSession.forensics`, and the ``repro-sta
forensics`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

NEG_INF = float("-inf")
POS_INF = float("inf")


def _fmt(value: float) -> str:
    if value == NEG_INF:
        return "-inf"
    if value == POS_INF:
        return "inf"
    if value == int(value):
        return str(int(value))
    return f"{value:.3f}"


@dataclass(frozen=True)
class RefinementEvent:
    """One accepted refinement and the arrival movement it caused.

    ``output_moves`` maps each primary output whose arrival changed to
    its exact ``(before, after)`` pair; outputs untouched by this
    refinement are absent.  ``weight_after`` is ``-inf`` when the
    refinement proved the pin pair a complete false path.
    """

    #: 1-based application order within the run.
    seq: int
    module: str
    input_port: str
    output_port: str
    #: Edge weight before/after this refinement (every instance of the
    #: module moves together).
    weight_before: float
    weight_after: float
    #: Design delay (max primary-output arrival) before/after.
    delay_before: float
    delay_after: float
    #: Primary output -> (arrival before, arrival after), changed only.
    output_moves: Mapping[str, tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def slack_movement(self) -> float:
        """How much this refinement tightened the design delay."""
        return self.delay_before - self.delay_after

    def moved(self, output: str) -> float:
        """Arrival decrease at ``output`` (0.0 if untouched)."""
        move = self.output_moves.get(output)
        return 0.0 if move is None else move[0] - move[1]

    def as_dict(self) -> dict:
        """JSON-ready form; ``output_moves`` keyed by output name."""
        return {
            "seq": self.seq,
            "module": self.module,
            "input": self.input_port,
            "output": self.output_port,
            "weight_before": self.weight_before,
            "weight_after": self.weight_after,
            "delay_before": self.delay_before,
            "delay_after": self.delay_after,
            "output_moves": {
                o: {"before": b, "after": a}
                for o, (b, a) in sorted(self.output_moves.items())
            },
        }


@dataclass(frozen=True)
class OutputForensics:
    """The topological-vs-refined story of one primary output."""

    output: str
    #: Arrival under the weights the run started with (the Theorem-1
    #: topological bound when the analyzer had no prior refinements).
    topological_arrival: float
    #: Arrival when the refinement loop finished.
    refined_arrival: float
    #: Required time at the end of the run.
    required_time: float
    #: The refinements that moved this output, in application order.
    refinements: tuple[RefinementEvent, ...] = ()

    @property
    def gap(self) -> float:
        """Pessimism removed at this output."""
        return self.topological_arrival - self.refined_arrival

    def attribution_chain(self) -> tuple[tuple[float, float], ...]:
        """The (before, after) arrival pairs of this output's events."""
        return tuple(
            event.output_moves[self.output] for event in self.refinements
        )

    @property
    def fully_attributed(self) -> bool:
        """True when the listed refinements exactly chain the gap.

        The first event starts at the topological arrival, consecutive
        events hand off exactly, and the last lands on the refined
        arrival — or there are no events and the gap is zero.  Exact
        float equality: the chain is built from the arrivals themselves.
        """
        chain = self.attribution_chain()
        if not chain:
            return self.topological_arrival == self.refined_arrival
        if chain[0][0] != self.topological_arrival:
            return False
        if chain[-1][1] != self.refined_arrival:
            return False
        return all(
            prev[1] == nxt[0] for prev, nxt in zip(chain, chain[1:])
        )

    def as_dict(self) -> dict:
        """JSON-ready form; unconstrained required time becomes None."""
        return {
            "output": self.output,
            "topological_arrival": self.topological_arrival,
            "refined_arrival": self.refined_arrival,
            "required_time": (
                None if self.required_time == POS_INF else self.required_time
            ),
            "gap": self.gap,
            "fully_attributed": self.fully_attributed,
            "refinements": [e.seq for e in self.refinements],
        }


@dataclass(frozen=True)
class SlackHistogram:
    """Fixed-bin histogram of slack (or delay) values.

    Shared by the conservatism audit (per-output slack distribution)
    and scenario families (per-member delay/slack distributions).
    Infinite values — unconstrained outputs, unreachable arrivals — are
    excluded from the bins and reported in :attr:`unbounded`.
    """

    #: Bin edges (``len(counts) + 1`` values); bin ``i`` covers
    #: ``[edges[i], edges[i+1])``, with the last bin closed above.
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    minimum: float
    maximum: float
    mean: float
    #: Finite values binned.
    total: int
    #: Values excluded for being infinite.
    unbounded: int = 0

    @classmethod
    def from_values(
        cls, values, bins: int = 16
    ) -> "SlackHistogram":
        """Build a histogram over ``bins`` equal-width bins.

        Degenerate inputs stay well-formed: no finite values yields
        empty edges/counts; a single distinct value yields one
        zero-width bin holding everything.
        """
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        raw = [float(v) for v in values]
        finite = [v for v in raw if NEG_INF < v < POS_INF]
        unbounded = len(raw) - len(finite)
        if not finite:
            return cls(
                edges=(),
                counts=(),
                minimum=POS_INF,
                maximum=NEG_INF,
                mean=0.0,
                total=0,
                unbounded=unbounded,
            )
        lo, hi = min(finite), max(finite)
        mean = sum(finite) / len(finite)
        span = hi - lo
        if span == 0.0:
            return cls(
                edges=(lo, hi),
                counts=(len(finite),),
                minimum=lo,
                maximum=hi,
                mean=mean,
                total=len(finite),
                unbounded=unbounded,
            )
        counts = [0] * bins
        for v in finite:
            i = int((v - lo) / span * bins)
            counts[min(i, bins - 1)] += 1
        edges = tuple(lo + span * i / bins for i in range(bins + 1))
        return cls(
            edges=edges,
            counts=tuple(counts),
            minimum=lo,
            maximum=hi,
            mean=mean,
            total=len(finite),
            unbounded=unbounded,
        )

    def as_dict(self) -> dict:
        """JSON-ready form."""
        return {
            "bins": len(self.counts),
            "edges": list(self.edges),
            "counts": list(self.counts),
            "min": None if self.minimum == POS_INF else self.minimum,
            "max": None if self.maximum == NEG_INF else self.maximum,
            "mean": self.mean,
            "total": self.total,
            "unbounded": self.unbounded,
        }

    def render(self, indent: str = "  ", width: int = 40) -> str:
        """ASCII bar chart, one line per bin."""
        header = (
            f"histogram: {self.total} values in {len(self.counts)} bins"
            f" (min {_fmt(self.minimum)}, max {_fmt(self.maximum)},"
            f" mean {_fmt(self.mean)}"
            + (f", {self.unbounded} unbounded" if self.unbounded else "")
            + ")"
        )
        if not self.counts:
            return header + "\n"
        peak = max(self.counts)
        lines = [header]
        for i, count in enumerate(self.counts):
            bar = "#" * (
                round(count / peak * width) if peak else 0
            )
            lines.append(
                f"{indent}[{_fmt(self.edges[i]):>8}, "
                f"{_fmt(self.edges[i + 1]):>8}) {count:>6}  {bar}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ForensicsReport:
    """Per-output conservatism audit of one demand-driven run."""

    design: str
    #: The arrival scenario the run analyzed (primary-input times).
    arrival: Mapping[str, float]
    outputs: tuple[OutputForensics, ...]
    #: Every accepted refinement, in application order.
    events: tuple[RefinementEvent, ...]
    refinement_checks: int
    #: Timing-graph edges in the design vs distinct refinable pin pairs.
    edges_total: int = 0
    pin_pairs_total: int = 0

    @property
    def delay(self) -> float:
        """Refined design delay (max primary-output arrival)."""
        return max(
            (o.refined_arrival for o in self.outputs), default=NEG_INF
        )

    @property
    def topological_delay(self) -> float:
        """Design delay under the run's starting weights."""
        return max(
            (o.topological_arrival for o in self.outputs), default=NEG_INF
        )

    @property
    def gap_closed(self) -> float:
        """Total pessimism removed from the design delay."""
        return self.topological_delay - self.delay

    @property
    def fully_attributed(self) -> bool:
        """True when every output's gap chains exactly to its events."""
        return all(o.fully_attributed for o in self.outputs)

    def output(self, name: str) -> OutputForensics:
        """The audit row for one primary output."""
        for row in self.outputs:
            if row.output == name:
                return row
        raise KeyError(f"no primary output {name!r} in the report")

    def as_dict(self) -> dict:
        """JSON-ready form of the full audit (outputs and events)."""
        return {
            "design": self.design,
            "arrival": dict(self.arrival),
            "delay": self.delay,
            "topological_delay": self.topological_delay,
            "gap_closed": self.gap_closed,
            "refinement_checks": self.refinement_checks,
            "refinements": len(self.events),
            "edges_total": self.edges_total,
            "pin_pairs_total": self.pin_pairs_total,
            "fully_attributed": self.fully_attributed,
            "outputs": [o.as_dict() for o in self.outputs],
            "events": [e.as_dict() for e in self.events],
        }

    def slack_histogram(self, bins: int = 16) -> SlackHistogram:
        """Distribution of per-output slack (required − refined arrival).

        Outputs without a required time (``inf``) land in the
        histogram's ``unbounded`` tally rather than a bin, so a design
        with no constraints still renders sensibly.
        """
        return SlackHistogram.from_values(
            (
                o.required_time - o.refined_arrival
                for o in self.outputs
            ),
            bins=bins,
        )

    def render(self, indent: str = "  ") -> str:
        """Human-readable audit: the per-output table, then the events."""
        lines = [
            f"Conservatism audit for {self.design}",
            f"{indent}refined delay        : {_fmt(self.delay)}",
            f"{indent}topological estimate : {_fmt(self.topological_delay)}",
            f"{indent}pessimism removed    : {_fmt(self.gap_closed)} over "
            f"{len(self.events)} refinements "
            f"({self.refinement_checks} checks, "
            f"{self.edges_total} graph edges, "
            f"{self.pin_pairs_total} pin pairs)",
            "",
            f"{indent}{'output':<16} {'topological':>11} {'refined':>8} "
            f"{'gap':>8}  closed by",
            f"{indent}" + "-" * 58,
        ]
        for row in sorted(
            self.outputs, key=lambda o: (-o.gap, o.output)
        ):
            closers = ", ".join(f"#{e.seq}" for e in row.refinements)
            lines.append(
                f"{indent}{row.output:<16} "
                f"{_fmt(row.topological_arrival):>11} "
                f"{_fmt(row.refined_arrival):>8} {_fmt(row.gap):>8}  "
                f"{closers or '-'}"
            )
        if self.events:
            lines.append("")
            lines.append(f"{indent}refinements (application order):")
            for event in self.events:
                moved = ", ".join(
                    f"{o} {_fmt(b)}->{_fmt(a)}"
                    for o, (b, a) in sorted(event.output_moves.items())
                )
                lines.append(
                    f"{indent}  #{event.seq} {event.module}: "
                    f"{event.input_port} -> {event.output_port}  weight "
                    f"{_fmt(event.weight_before)} -> "
                    f"{_fmt(event.weight_after)}"
                    + (f"  (moved {moved})" if moved else "  (no PO moved)")
                )
        return "\n".join(lines) + "\n"


__all__ = [
    "ForensicsReport",
    "OutputForensics",
    "RefinementEvent",
    "SlackHistogram",
]
