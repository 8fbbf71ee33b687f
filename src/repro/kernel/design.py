"""Reusable compiled-design handle returned by ``compile()``.

A :class:`CompiledDesign` bundles a frozen
:class:`~repro.kernel.plan.CompiledGraph` with the design-level
metadata a caller needs to evaluate arrival scenarios without the
analyzer that produced it: the primary-output names, which modules were
characterized while compiling, and any conservative degradations taken
during that characterization (they apply to *every* scenario evaluated
against the handle, since the baked-in models are shared).

Results come back as :class:`RowView` s: read-only name -> stable-time
mappings over one row each of the kernel's result matrix, so a batch
costs one row reference per scenario instead of a dict per scenario.
"""

from __future__ import annotations

from array import array
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.kernel.backend import numpy_or_none
from repro.kernel.execute import propagate_batch
from repro.kernel.plan import CompiledGraph
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.degradation import Degradation

#: One 0.0 double: ``_ZERO * n`` is an arrival row of ``n`` zeros.
_ZERO = array("d", [0.0])


class RowKeys:
    """Where each of ``names`` sits in a kernel row: at ``picks`` in a
    row that holds other values too, else at 0, 1, ... in order.

    One key set is shared by every :class:`RowView` read through it and
    is never mutated, so a view stays valid after its design changes.
    """

    __slots__ = ("index", "picks", "array")

    def __init__(self, names: Sequence[str], picks: list | None = None):
        self.index = dict(zip(names, picks or range(len(names))))
        self.picks = picks
        np = numpy_or_none()
        self.array = (
            None if picks is None or np is None
            else np.asarray(picks, dtype=np.intp)
        )

    def floats(self, row) -> list[float]:
        """The values of ``row`` (a numpy row or a list) in key order,
        as Python floats."""
        if self.picks is not None:
            if isinstance(row, list):
                return [row[i] for i in self.picks]
            row = row[self.array]
        return row if isinstance(row, list) else row.tolist()


class RowView(Mapping):
    """Stable times of one scenario: a read-only name -> ``float``
    mapping over one row of the kernel's result matrix.

    It equals the dict it stands for (either way round), iterates in the
    same key order and refuses item assignment (``TypeError``).  Every
    value is a Python ``float``; read them with :meth:`values` or
    :meth:`items` (iterating a view yields its names).
    """

    __slots__ = ("_keys", "_row")

    def __init__(self, keys: RowKeys, row):
        self._keys = keys
        self._row = row

    def __getitem__(self, name: str) -> float:
        return float(self._row[self._keys.index[name]])

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys.index)

    def __len__(self) -> int:
        return len(self._keys.index)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def values(self) -> ValuesView:
        """The times in key order, read from the row in one pass."""
        return _Values(self)

    def items(self) -> ItemsView:
        """``(name, time)`` pairs in key order, read in one pass."""
        return _Items(self)

    def select(self, keys: RowKeys) -> "RowView":
        """The same row read through another key set."""
        return RowView(keys, self._row)

    def _floats(self) -> list[float]:
        return self._keys.floats(self._row)


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping._floats())


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._floats())


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
    #: against one handle skip the per-level array setup.
    _executors: dict = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Cache of row keys by net-name tuple (``None``: every net).
    _keys: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary-input net names, in scenario-row order."""
        return self.plan.nets[: self.plan.n_inputs]

    @property
    def output_keys(self) -> RowKeys:
        """Keys of :attr:`outputs` in a row of every net: read a
        :meth:`propagate` view through them with :meth:`RowView.select`."""
        return self._row_keys(self.outputs)[1]

    def rows_from(
        self, scenarios: Sequence[Mapping[str, float]]
    ) -> list[array]:
        """Arrival rows (``array("d")``, aligned with :attr:`inputs`).

        One row per scenario mapping: missing inputs default to 0.0,
        names that are not primary inputs are ignored, and an arrival
        that ``float()`` makes NaN raises
        :class:`~repro.errors.AnalysisError` naming the input.

        Scattered into a zero row rather than built by scanning every
        input: scenarios are usually sparse (a handful of constrained
        arrivals on a design with thousands of inputs), and the scan
        costs more per scenario than the batched kernel itself.  A row
        of machine doubles reaches numpy as one copy, where a list of
        Python floats is read one object at a time.
        """
        from repro.core.xbd0 import reject_nan_arrivals

        index = self._row_keys(None)[0].index
        n = self.plan.n_inputs
        rows = []
        for scenario in scenarios:
            row = _ZERO * n
            for name, value in scenario.items():
                i = index.get(name)
                if i is not None and i < n:
                    row[i] = value = float(value)
                    if value != value:
                        reject_nan_arrivals({name: value})
            rows.append(row)
        return rows

    def propagate(
        self,
        scenarios: Sequence[Mapping[str, float]],
        tracer: Tracer = NULL_TRACER,
        nets: Sequence[str] | None = None,
        delays=None,
    ) -> list[RowView]:
        """Net stable times for each scenario, one :class:`RowView` each.

        ``tracer``/``delays`` forward to
        :func:`~repro.kernel.execute.propagate_batch`.  ``nets`` limits
        the views, and the kernel's matrix chunk by chunk, to the named
        nets (e.g. ``handle.outputs``); an unknown name is a
        ``ValueError``.
        """
        keys, picked = self._row_keys(nets)
        matrix = propagate_batch(
            self.plan,
            self.rows_from(scenarios),
            cache=self._executors,
            tracer=tracer,
            delays=delays,
            columns=picked.picks,
        )
        return [RowView(keys, row) for row in matrix]

    def _row_keys(self, nets: Sequence[str] | None) -> tuple:
        """Keys of ``nets`` (``None``: every net; a repeated name counts
        once) in a row of their own and in a row of every net."""
        key = None if nets is None else tuple(nets)
        found = self._keys.get(key)
        if found is None:
            if key is None:
                every = RowKeys(self.plan.nets)
                found = (every, every)
            else:
                index = self._row_keys(None)[0].index
                names = tuple(dict.fromkeys(key))
                missing = [n for n in names if n not in index]
                if missing:
                    raise ValueError(
                        f"unknown net {missing[0]!r} (plan "
                        f"{self.plan.name!r} has {len(index)} nets)"
                    )
                picks = [index[n] for n in names]
                found = (RowKeys(names), RowKeys(names, picks))
            self._keys[key] = found
        return found
