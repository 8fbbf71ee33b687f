"""Reusable compiled-design handle returned by ``compile()``.

A :class:`CompiledDesign` bundles a frozen
:class:`~repro.kernel.plan.CompiledGraph` with the design-level
metadata a caller needs to evaluate arrival scenarios without the
analyzer that produced it: the primary-output names, which modules were
characterized while compiling, and any conservative degradations taken
during that characterization (they apply to *every* scenario evaluated
against the handle, since the baked-in models are shared).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.kernel.execute import propagate_batch
from repro.kernel.plan import CompiledGraph
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.degradation import Degradation


@dataclass(frozen=True)
class CompiledDesign:
    """A design compiled once, evaluatable for many arrival scenarios.

    Obtained from :meth:`repro.core.hier.HierarchicalAnalyzer.compile`
    or :meth:`repro.api.AnalysisSession.compile`; reusable across calls
    until the design's modules change.
    """

    #: The flat-array timing graph (see :class:`~repro.kernel.plan.CompiledGraph`).
    plan: CompiledGraph
    #: Primary-output net names, in design order.
    outputs: tuple[str, ...]
    #: Modules characterized while building this handle (empty on a
    #: warm model cache).
    characterized_modules: tuple[str, ...] = ()
    #: Conservative fallbacks taken during characterization; they are
    #: baked into the plan and shared by every scenario.
    degradations: "tuple[Degradation, ...]" = ()
    #: Wall-clock seconds spent characterizing + planning.
    compile_seconds: float = 0.0
    #: Per-executor cache: repeated :meth:`propagate` calls
    #: against one handle skip the per-node array setup.
    _executors: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Cache of net-name -> row-index tuples for ``propagate(nets=...)``.
    _net_indices: dict = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary-input net names, in scenario-row order."""
        return self.plan.nets[: self.plan.n_inputs]

    def rows_from(
        self, scenarios: Sequence[Mapping[str, float]]
    ) -> list[list[float]]:
        """Arrival rows (aligned with :attr:`inputs`) from scenario
        mappings; missing inputs default to 0.0 and names that are not
        primary inputs are ignored.

        Scattered into a zero row rather than built by scanning every
        input: scenarios are usually sparse (a handful of constrained
        arrivals on a design with thousands of inputs), and the scan
        costs more per scenario than the batched kernel itself.
        """
        inputs = self.inputs
        index = self._net_indices.get(None)
        if index is None:
            index = self._net_indices[None] = {
                name: i for i, name in enumerate(inputs)
            }
        n = len(inputs)
        rows = []
        for scenario in scenarios:
            row = [0.0] * n
            for name, value in scenario.items():
                i = index.get(name)
                if i is not None:
                    row[i] = float(value)
            rows.append(row)
        return rows

    def propagate(
        self,
        scenarios: Sequence[Mapping[str, float]],
        tracer: Tracer = NULL_TRACER,
        nets: Sequence[str] | None = None,
        delays=None,
    ) -> list[dict[str, float]]:
        """Net stable times for each scenario, as name-keyed dicts.

        ``tracer``/``delays`` forward to
        :func:`~repro.kernel.execute.propagate_batch`.  ``nets`` limits
        each result dict to the named nets (e.g. ``handle.outputs``);
        building the full ~all-nets dict costs more per scenario than
        the batched kernel itself on large designs, so callers that
        only read outputs should pass the filter.
        """
        values = propagate_batch(
            self.plan,
            self.rows_from(scenarios),
            cache=self._executors,
            tracer=tracer,
            delays=delays,
        )
        if nets is None:
            all_nets = self.plan.nets
            return [dict(zip(all_nets, row)) for row in values]
        pairs = self._indices_for(tuple(nets))
        return [{n: row[i] for n, i in pairs} for row in values]

    def propagate_rows(
        self,
        scenarios: Sequence[Mapping[str, float]],
        tracer: Tracer = NULL_TRACER,
        nets: Sequence[str] | None = None,
        delays=None,
    ) -> list[list[float]]:
        """Raw stable-time rows, without name-keyed dict building.

        Each row aligns with :attr:`CompiledGraph.nets` (or with
        ``nets`` when given).  The dict-free variant of
        :meth:`propagate` for hot callers — a server answering
        delay-only queries pays more for the name dict than for the
        batched kernel call itself.
        """
        values = propagate_batch(
            self.plan,
            self.rows_from(scenarios),
            cache=self._executors,
            tracer=tracer,
            delays=delays,
        )
        if nets is None:
            return [list(row) for row in values]
        idx = [i for _, i in self._indices_for(tuple(nets))]
        return [[row[i] for i in idx] for row in values]

    def _indices_for(self, nets: tuple[str, ...]) -> tuple:
        pairs = self._net_indices.get(nets)
        if pairs is None:
            index = {n: i for i, n in enumerate(self.plan.nets)}
            missing = [n for n in nets if n not in index]
            if missing:
                raise ValueError(
                    f"unknown net {missing[0]!r} (plan "
                    f"{self.plan.name!r} has {len(index)} nets)"
                )
            pairs = self._net_indices[nets] = tuple(
                (n, index[n]) for n in nets
            )
        return pairs
