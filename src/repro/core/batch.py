"""Batch analysis results: many arrival scenarios, one call.

Timing-model extraction amortizes one characterized interface over many
evaluation contexts; the batch API is that idea at the API surface.
:meth:`~repro.api.AnalysisSession.analyze_batch` (and the per-analyzer
``analyze_batch`` methods) evaluate a list of arrival-time scenarios
and return one :class:`BatchResult` holding a per-scenario
:class:`ScenarioResult` each, plus the run-wide shared state — the
degradation log slice and aggregate statistics — that is *not*
per-scenario because characterized models and refined edge weights are
shared across the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.result import AnalysisResultMixin
from repro.kernel.design import RowView
from repro.resilience.degradation import Degradation

NEG_INF = float("-inf")
POS_INF = float("inf")


class SlackView(RowView):
    """Slack per primary output, derived on read from a view of the
    output times and the scenario's delay: ``delay - t``, or ``+inf``
    when the delay or ``t`` is ``-inf``."""

    __slots__ = ("_delay",)

    def __init__(self, times: RowView, delay: float):
        super().__init__(times._keys, times._row)
        self._delay = delay

    def __getitem__(self, name: str) -> float:
        return self._slack(super().__getitem__(name))

    def _floats(self) -> list[float]:
        return [self._slack(t) for t in super()._floats()]

    def _slack(self, t: float) -> float:
        delay = self._delay
        return POS_INF if delay == NEG_INF or t == NEG_INF else delay - t


@dataclass
class ScenarioResult(AnalysisResultMixin):
    """Outcome of one arrival scenario within a batch."""

    #: The arrival-time scenario that was analyzed (inputs not listed
    #: defaulted to 0.0).
    arrival: dict[str, float]
    #: Stable-time estimate per top-level net (the hierarchical
    #: analyzer's is a read-only view over the kernel's result row).
    net_times: Mapping[str, float]
    #: Stable time per primary output.
    output_times: Mapping[str, float]
    #: max over primary outputs.
    delay: float
    #: Slack per primary output (required − arrival under this
    #: scenario's own deadline, the latest primary-output arrival).
    slacks: Mapping[str, float] = field(default_factory=dict)

    def _to_dict_extra(self) -> dict:
        return {
            "arrival": dict(self.arrival),
            "slacks": dict(self.slacks),
        }


@dataclass
class BatchResult:
    """Outcome of analyzing a batch of arrival scenarios.

    Per-scenario numbers live in :attr:`scenarios`; everything shared
    across the batch (degradations, aggregate counters) lives here once.
    A hierarchical batch keeps the kernel's one result matrix: each
    scenario's times are views over its row.
    """

    #: One result per input scenario, in input order.
    scenarios: tuple[ScenarioResult, ...]
    #: max over scenarios of the per-scenario delay (the batch envelope).
    delay: float
    #: Analysis method (``"hierarchical"`` or ``"demand"``).
    method: str = ""
    #: Conservative fallbacks shared by every scenario (characterized
    #: models and refined weights are batch-wide state).
    degradations: tuple[Degradation, ...] = ()
    #: Wall-clock seconds for the whole batch.
    elapsed_seconds: float = 0.0
    #: Engine-specific aggregate counters (e.g. demand-driven
    #: ``sta_passes``/``refinements``, hierarchical
    #: ``characterized_modules``).
    stats: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self) -> Iterator[ScenarioResult]:
        return iter(self.scenarios)

    def __getitem__(self, index: int) -> ScenarioResult:
        return self.scenarios[index]

    @property
    def degraded(self) -> bool:
        """True when any conservative fallback was taken."""
        return bool(self.degradations)

    @property
    def delays(self) -> tuple[float, ...]:
        """The per-scenario circuit delays, in scenario order."""
        return tuple(s.delay for s in self.scenarios)

    def worst_scenario(self) -> int:
        """Index of the scenario achieving the batch envelope delay."""
        if not self.scenarios:
            return -1
        return max(
            range(len(self.scenarios)), key=lambda i: self.scenarios[i].delay
        )

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (shared fields + every scenario)."""
        return {
            "kind": type(self).__name__,
            "method": self.method,
            "delay": self.delay,
            "worst_scenario": self.worst_scenario(),
            "elapsed_seconds": self.elapsed_seconds,
            "degradations": [d.as_dict() for d in self.degradations],
            "stats": dict(self.stats),
            "scenarios": [s.to_dict() for s in self.scenarios],
        }
