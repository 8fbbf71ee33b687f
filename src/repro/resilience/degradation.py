"""Degradation records: every conservative fallback, made visible.

Theorem 1 lets the analysis survive crashes, timeouts, and corruption by
falling back toward the topological model — but a silent fallback is a
silent accuracy loss.  Every degradation is therefore recorded as a
:class:`Degradation` and surfaced three ways:

* on the result object (``result.degradations``),
* as a ``degradation`` trace event (phase ``"resilience"``) plus the
  ``resilience.degradations`` counter through :mod:`repro.obs`,
* in the CLI reports (a "degradations" block when any occurred).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.obs.trace import Tracer, ensure_tracer

#: Canonical degradation kinds (any string is accepted; these are the
#: ones the built-in layers emit).
KINDS = (
    "worker-crash",
    "task-timeout",
    "task-error",
    "quarantine",
    "characterization-error",
    "cache-corrupt",
    "deadline",
    "refinement-error",
    "refinement-budget",
)


@dataclass(frozen=True)
class Degradation:
    """One conservative fallback taken during an analysis run."""

    #: What went wrong (see :data:`KINDS`).
    kind: str
    #: What it happened to (module name, output port, cache signature...).
    subject: str
    #: Human-readable specifics (exception text, budget numbers).
    detail: str
    #: The sound substitute that was used instead.
    fallback: str

    def as_dict(self) -> dict:
        """JSON-serializable form (for ``result.to_dict()``)."""
        return {
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
            "fallback": self.fallback,
        }

    def __str__(self) -> str:
        """The one-line form the CLI reports print."""
        return (
            f"[{self.kind}] {self.subject}: {self.detail} "
            f"(fallback: {self.fallback})"
        )


class DegradationLog:
    """Per-run accumulator of :class:`Degradation` records.

    One log lives for the duration of one ``analyze()`` call; its
    snapshot lands on the result object.  Recording also emits a
    ``degradation`` trace event and bumps ``resilience.degradations``
    when the run is traced, so fallbacks are visible in the same stream
    as the work they replaced.
    """

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = ensure_tracer(tracer)
        self._records: list[Degradation] = []

    def record(
        self, kind: str, subject: str, detail: str, fallback: str
    ) -> Degradation:
        """Append one degradation (and trace it)."""
        degradation = Degradation(
            kind=kind,
            subject=str(subject),
            detail=str(detail),
            fallback=fallback,
        )
        self._records.append(degradation)
        if self.tracer.enabled:
            self.tracer.count("resilience.degradations")
            self.tracer.count(f"resilience.degradations.{kind}")
            self.tracer.event(
                "degradation",
                phase="resilience",
                kind=kind,
                subject=degradation.subject,
                fallback=fallback,
            )
        return degradation

    def extend(self, records) -> None:
        """Merge another log's snapshot (no re-tracing)."""
        self._records.extend(records)

    def snapshot(self) -> tuple[Degradation, ...]:
        """Immutable copy for attachment to a result object."""
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Degradation]:
        return iter(self._records)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DegradationLog({len(self._records)} records)"
