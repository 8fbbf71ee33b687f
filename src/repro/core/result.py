"""Common protocol for analysis result objects.

Every analyzer result — :class:`~repro.core.hier.HierResult`,
:class:`~repro.core.demand.DemandDrivenResult`,
:class:`~repro.core.subflat.SubFlatResult`,
:class:`~repro.core.conditional.ConditionalResult` — exposes the same
minimal surface so reporting and export code never special-cases the
concrete type:

* ``arrival_times`` — primary-output name → stable time,
* ``delay`` — max over primary outputs,
* ``critical_outputs()`` — the outputs achieving that max,
* ``elapsed_seconds`` — wall time of the producing run,
* ``to_dict()`` — JSON-serializable snapshot.

:class:`AnalysisResultMixin` implements the shared members on top of
the per-class dataclass fields; :class:`AnalysisResult` is the
``Protocol`` consumers should type against.

Renamed accessors from earlier revisions (``HierResult.characterized``,
``DemandDrivenResult.seconds``, ``SubFlatResult.seconds``) are
**removed**: reading them raises :class:`AttributeError` with the
migration hint, via :func:`removed_alias`.
"""

from __future__ import annotations

from typing import Mapping, Protocol, runtime_checkable

NEG_INF = float("-inf")

#: Tolerance when deciding which outputs sit on the critical envelope.
_CRITICAL_EPS = 1e-9


def removed_alias(old: str, new: str) -> property:
    """A property that hard-errors with the migration hint for ``old``.

    Raising :class:`AttributeError` (rather than silently vanishing)
    keeps the failure mode identical to a missing attribute —
    ``hasattr`` and ``getattr`` defaults behave normally — while the
    message tells the caller exactly what to rename.
    """

    def getter(self):
        raise AttributeError(
            f"{type(self).__name__}.{old} was removed; "
            f"use {new} instead"
        )

    getter.__doc__ = f"Removed alias of :attr:`{new}` (raises)."
    return property(getter)


@runtime_checkable
class AnalysisResult(Protocol):
    """Structural type of every analyzer result object."""

    @property
    def arrival_times(self) -> Mapping[str, float]:
        """Stable time per primary output."""
        ...

    @property
    def delay(self) -> float:
        """max over primary outputs."""
        ...

    def critical_outputs(self) -> tuple[str, ...]:
        """Outputs whose arrival equals the circuit delay."""
        ...

    def to_dict(self) -> dict:
        """JSON-serializable snapshot."""
        ...


class AnalysisResultMixin:
    """Shared implementation of the :class:`AnalysisResult` surface.

    Concrete results are dataclasses with at least ``output_times``
    (primary-output stable times) and ``delay``; everything here is
    derived from those.
    """

    @property
    def arrival_times(self) -> Mapping[str, float]:
        """Stable time per primary output (the protocol's spelling)."""
        return self.output_times  # type: ignore[attr-defined]

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds of the producing run (0.0 if untimed)."""
        return 0.0

    def critical_outputs(self) -> tuple[str, ...]:
        """Outputs whose arrival time equals the circuit delay."""
        times = self.arrival_times
        delay = self.delay  # type: ignore[attr-defined]
        if not times or delay == NEG_INF:
            return ()
        return tuple(
            name
            for name, t in times.items()
            if abs(t - delay) <= _CRITICAL_EPS
        )

    def _to_dict_extra(self) -> dict:
        """Per-class additions merged into :meth:`to_dict`."""
        return {}

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (common fields + class extras)."""
        base = {
            "kind": type(self).__name__,
            "delay": self.delay,  # type: ignore[attr-defined]
            "arrival_times": dict(self.arrival_times),
            "critical_outputs": list(self.critical_outputs()),
            "elapsed_seconds": self.elapsed_seconds,
        }
        base.update(self._to_dict_extra())
        return base
