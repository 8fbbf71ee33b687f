"""Aggregated results of a scenario-family analysis.

A family run produces one :class:`FamilyResult`: per-member design
delays and critical outputs, the per-output worst-case envelope,
criticality fractions (how often each output was the critical one),
and per-corner summary statistics — everything O(members + outputs),
so Monte-Carlo runs stay memory-bounded no matter how many samples
stream through the kernel.  Full per-output arrivals are retained only
for small families (``<=`` :data:`DETAIL_LIMIT` members).

Slack/delay distributions reuse the conservatism audit's
:class:`~repro.obs.forensics.SlackHistogram`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs.forensics import SlackHistogram, _fmt

NEG_INF = float("-inf")

#: Families at most this large keep full per-output arrivals on each
#: member; larger families keep only the O(1)-per-member summary.
DETAIL_LIMIT = 64


@dataclass(frozen=True)
class MemberResult:
    """One family member's outcome."""

    #: Position in the family's expansion order.
    index: int
    label: str
    corner: str
    #: Kind-specific parameters (scale / parameter value / sample id).
    params: tuple[tuple[str, float], ...]
    #: Design delay (max primary-output stable time) for this member.
    delay: float
    #: The critical primary output (argmax).
    critical: str
    #: Full per-output arrivals; empty past :data:`DETAIL_LIMIT`.
    arrivals: tuple[tuple[str, float], ...] = ()

    def as_dict(self) -> dict:
        """JSON-ready form of the member outcome."""
        doc = {
            "index": self.index,
            "label": self.label,
            "corner": self.corner,
            "params": dict(self.params),
            "delay": self.delay,
            "critical": self.critical,
        }
        if self.arrivals:
            doc["arrivals"] = dict(self.arrivals)
        return doc


@dataclass(frozen=True)
class CornerStats:
    """Delay statistics over one corner's members."""

    name: str
    count: int
    minimum: float
    maximum: float
    mean: float
    #: Population standard deviation of the member delays.
    std: float

    def as_dict(self) -> dict:
        """JSON-ready form of the per-corner statistics."""
        return {
            "name": self.name,
            "count": self.count,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "std": self.std,
        }


@dataclass(frozen=True)
class FamilyResult:
    """Everything a family run produced, aggregation included."""

    #: Compiled-plan name the family ran against.
    design: str
    #: Family tag (``corner`` / ``parametric`` / ``monte-carlo``).
    kind: str
    #: Optional family name from the spec.
    name: str
    #: Members evaluated.
    count: int
    #: Executor of every chunk: numpy whenever it is installed.
    backend: str
    #: Wall-clock seconds of the propagation loop.
    seconds: float
    #: Primary-output names, in design order.
    outputs: tuple[str, ...]
    members: tuple[MemberResult, ...]
    #: Per-output worst (max) stable time across every member.
    worst: tuple[tuple[str, float], ...]
    #: Per-output fraction of members where it was the critical output.
    criticality: tuple[tuple[str, float], ...]

    @property
    def delay(self) -> float:
        """Worst design delay across the whole family."""
        return max((m.delay for m in self.members), default=NEG_INF)

    def delays(self) -> list[float]:
        """Per-member design delays, in expansion order."""
        return [m.delay for m in self.members]

    def member(self, label: str) -> MemberResult:
        """The member with the given label."""
        for m in self.members:
            if m.label == label:
                return m
        raise KeyError(f"no family member {label!r}")

    def corner_stats(self) -> list[CornerStats]:
        """Delay statistics grouped by corner, in first-seen order."""
        groups: dict[str, list[float]] = {}
        for m in self.members:
            groups.setdefault(m.corner, []).append(m.delay)
        stats = []
        for name, values in groups.items():
            finite = [v for v in values if v > NEG_INF]
            if finite:
                mean = sum(finite) / len(finite)
                var = sum((v - mean) ** 2 for v in finite) / len(finite)
                stats.append(
                    CornerStats(
                        name=name,
                        count=len(values),
                        minimum=min(finite),
                        maximum=max(finite),
                        mean=mean,
                        std=math.sqrt(var),
                    )
                )
            else:
                stats.append(
                    CornerStats(
                        name=name,
                        count=len(values),
                        minimum=NEG_INF,
                        maximum=NEG_INF,
                        mean=NEG_INF,
                        std=0.0,
                    )
                )
        return stats

    def histogram(self, bins: int = 16) -> SlackHistogram:
        """Distribution of per-member design delays."""
        return SlackHistogram.from_values(self.delays(), bins=bins)

    def slack_histogram(
        self, required: float | None = None, bins: int = 16
    ) -> SlackHistogram:
        """Distribution of per-member slack against ``required``.

        ``required`` defaults to the family's worst delay, making the
        histogram a "margin to the worst member" view.
        """
        target = self.delay if required is None else float(required)
        return SlackHistogram.from_values(
            (target - d for d in self.delays()), bins=bins
        )

    def to_dict(self, bins: int = 16) -> dict:
        """JSON-ready form (the server's ``/batch`` family document)."""
        return {
            "design": self.design,
            "family": self.kind,
            "name": self.name,
            "count": self.count,
            "backend": self.backend,
            "seconds": self.seconds,
            "delay": self.delay,
            "corners": [s.as_dict() for s in self.corner_stats()],
            "criticality": {
                name: fraction
                for name, fraction in self.criticality
                if fraction > 0.0
            },
            "worst": dict(self.worst),
            "histogram": self.histogram(bins=bins).as_dict(),
            "members": [m.as_dict() for m in self.members],
        }

    def render(self, indent: str = "  ") -> str:
        """Human-readable family summary.

        Prints no wall-clock time and no executor name, so one family
        on one design renders the same bytes on every run; both stay in
        :meth:`to_dict`.
        """
        lines = [
            f"Scenario family {self.kind!r}"
            + (f" ({self.name})" if self.name else "")
            + f" on {self.design}: {self.count} members",
            f"{indent}family delay (worst member): {_fmt(self.delay)}",
        ]
        for s in self.corner_stats():
            lines.append(
                f"{indent}corner {s.name:<12} n={s.count:<5} "
                f"min {_fmt(s.minimum):>8}  mean {_fmt(s.mean):>8}  "
                f"max {_fmt(s.maximum):>8}  std {s.std:.4f}"
            )
        critical = [
            (name, fraction)
            for name, fraction in self.criticality
            if fraction > 0.0
        ]
        critical.sort(key=lambda item: -item[1])
        lines.append(f"{indent}critical outputs:")
        for name, fraction in critical[:8]:
            lines.append(f"{indent}  {name:<16} {fraction:7.1%}")
        if len(critical) > 8:
            lines.append(
                f"{indent}  ... and {len(critical) - 8} more"
            )
        lines.append("")
        lines.append(self.histogram().render(indent=indent))
        return "\n".join(lines)


__all__ = [
    "CornerStats",
    "DETAIL_LIMIT",
    "FamilyResult",
    "MemberResult",
]
