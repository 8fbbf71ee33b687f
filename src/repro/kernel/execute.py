"""The *execute* half of the kernel: batched min-max propagation.

Evaluates a :class:`~repro.kernel.plan.CompiledGraph` for a batch of
arrival-time scenarios at once.  Two executors share the plan:

* :class:`NumpyExecutor` — one float64 matrix for the whole batch,
  evaluated one topological level at a time: each level is one gather
  of entry sources, one add of the entry delays, one max over each
  tuple's entries and, where a node has several tuples, one min over
  them.  csa2048.8 has 2,304 nodes but 256 levels.
* :class:`PythonExecutor` — the same flat-array walk in pure python,
  used when numpy is absent or the work per level (plan tuples × rows
  ÷ levels) is too small to pay for numpy's fixed cost per level.

Both are bit-identical to a per-node
:meth:`~repro.core.timing_model.TimingModel.stable_time` walk: identical
float64 additions, maxima, and minima over identical values (addition and
max/min are order-insensitive for non-NaN floats, and the compiler
rejects NaN/``+inf`` delays).
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Sequence

from repro.kernel.backend import numpy_or_none, pick_backend
from repro.kernel.plan import CompiledGraph
from repro.obs.trace import NULL_TRACER, Tracer

NEG_INF = float("-inf")
POS_INF = float("inf")

#: Scenarios per vectorized chunk: bounds the working-set matrix of one
#: :func:`propagate_batch` call to ``CHUNK × nets`` floats.  Read at call
#: time; chunking never changes an answer.
CHUNK = 256


def delay_form(delays) -> str:
    """Classify a ``delays`` override: ``none``, ``shared``, or ``rows``.

    ``shared`` is one per-entry delay vector applied to every scenario
    (a corner); ``rows`` is one vector per scenario (parametric grids,
    Monte-Carlo samples).  Accepts lists/tuples and numpy arrays.
    """
    if delays is None:
        return "none"
    ndim = getattr(delays, "ndim", None)
    if ndim is not None:
        if ndim == 1:
            return "shared"
        if ndim == 2:
            return "rows"
        raise ValueError(f"delays array must be 1-D or 2-D, got {ndim}-D")
    if len(delays) and hasattr(delays[0], "__len__"):
        return "rows"
    return "shared"


class PythonExecutor:
    """Pure-python flat-array executor (no dependencies)."""

    def __init__(self, plan: CompiledGraph):
        self.plan = plan
        # Plain lists index faster than tuples under CPython.
        self._tup_start = list(plan.tup_start)
        self._ent_start = list(plan.ent_start)
        self._ent_src = list(plan.ent_src)
        self._ent_delay = list(plan.ent_delay)

    def propagate(
        self,
        rows: Sequence[Sequence[float]],
        delays=None,
    ) -> list[list[float]]:
        """Net values per scenario.

        ``rows`` holds one arrival vector per scenario, aligned with
        ``plan.nets[:plan.n_inputs]``; the result rows are aligned with
        ``plan.nets``.  ``delays`` optionally overrides the plan's entry
        delays: one vector (aligned with ``plan.ent_delay``) shared by
        every scenario, or one vector per scenario.  The override path
        performs the identical float64 additions, so a vector equal to
        ``plan.ent_delay`` is bit-identical to no override.  A numpy
        override is read as plain floats, so every result is a ``float``.
        """
        if hasattr(delays, "tolist"):
            delays = delays.tolist()
        plan = self.plan
        n_inputs = plan.n_inputs
        n_nodes = plan.n_nodes
        n_entries = len(self._ent_src)
        tup_start = self._tup_start
        ent_start = self._ent_start
        ent_src = self._ent_src
        form = delay_form(delays)
        shared = self._ent_delay if form == "none" else (
            delays if form == "shared" else None
        )
        if shared is not None and len(shared) != n_entries:
            raise ValueError(
                f"delay override has {len(shared)} entries, "
                f"plan has {n_entries}"
            )
        if form == "rows" and len(delays) != len(rows):
            raise ValueError(
                f"{len(delays)} delay rows for {len(rows)} scenarios"
            )
        out: list[list[float]] = []
        for r, row in enumerate(rows):
            values = list(map(float, row))
            if len(values) != n_inputs:
                raise ValueError(
                    f"arrival row has {len(values)} entries, "
                    f"plan has {n_inputs} inputs"
                )
            if shared is not None:
                ent_delay = shared
            else:
                ent_delay = delays[r]
                if len(ent_delay) != n_entries:
                    raise ValueError(
                        f"delay row {r} has {len(ent_delay)} entries, "
                        f"plan has {n_entries}"
                    )
            values.extend([0.0] * n_nodes)
            for k in range(n_nodes):
                ts, te = tup_start[k], tup_start[k + 1]
                if ts == te:
                    values[n_inputs + k] = NEG_INF
                    continue
                best = POS_INF
                for t in range(ts, te):
                    worst = NEG_INF
                    for e in range(ent_start[t], ent_start[t + 1]):
                        term = values[ent_src[e]] + ent_delay[e]
                        if term > worst:
                            worst = term
                    if worst < best:
                        best = worst
                values[n_inputs + k] = best
            out.append(values)
        return out


class NumpyExecutor:
    """Numpy-vectorized executor: one op sequence per topological level.

    Each level (:attr:`~repro.kernel.plan.CompiledGraph.node_level`)
    covers every scenario in the batch at once.  The matrix is ``(nets
    + 1, scenarios)``: one row per net, whose values for the whole batch
    are contiguous, plus a last row held at ``-inf``.  The constructor
    pads each level's tuples to the level's widest with entries that
    read that row and add 0.0, laid out entry position by entry
    position, so the max over each tuple's entries is one reduction over
    whole rows.  A delay override is read through an entry table (see
    :meth:`_table`), so a per-scenario one is transposed once and never
    copied into the padded order.
    """

    def __init__(self, plan: CompiledGraph):
        np = numpy_or_none()
        if np is None:  # pragma: no cover - guarded by pick_backend
            raise RuntimeError("numpy is not installed")
        self._np = np
        self.plan = plan
        self._n_entries = plan.n_entries
        self._levels, self._constants = _group_levels(np, plan)

    def _table(self, delays):
        """A delay override (one vector, or one per row) by entry: one
        row per entry and a last row of 0.0 for the pads, one column per
        row (one column for a single vector)."""
        np = self._np
        delays = np.asarray(delays, dtype=np.float64)
        table = np.empty((self._n_entries + 1,) + delays.shape[:-1])
        table[:-1] = delays.T
        table[-1] = 0.0
        return table if delays.ndim == 2 else table[:, None]

    def propagate(
        self,
        rows: Sequence[Sequence[float]],
        delays=None,
    ):
        """Net values per scenario, as one float64 array.

        The array is ``(scenarios, nets)``, a transposed view of the
        executor's matrix; otherwise the contract is the python path's.

        ``delays`` mirrors :meth:`PythonExecutor.propagate`: ``None``
        uses the plan's delays; a 1-D ``(n_entries,)`` vector is shared
        across the batch; a 2-D ``(batch, n_entries)`` matrix gives each
        scenario its own delays.  Either is read in slot order, so the
        float64 op sequence per element is unchanged.
        """
        np = self._np
        plan = self.plan
        batch = len(rows)
        table = None
        if delays is not None:
            override = np.asarray(delays, dtype=np.float64)
            if override.ndim == 1:
                if override.shape[0] != self._n_entries:
                    raise ValueError(
                        f"delay override has {override.shape[0]} "
                        f"entries, plan has {self._n_entries}"
                    )
            elif override.ndim == 2:
                if override.shape != (batch, self._n_entries):
                    raise ValueError(
                        f"delay override has shape {override.shape}, "
                        f"expected ({batch}, {self._n_entries})"
                    )
            else:
                raise ValueError(
                    f"delays array must be 1-D or 2-D, "
                    f"got {override.ndim}-D"
                )
            table = self._table(override)
        arrivals = np.asarray(rows, dtype=np.float64)
        if arrivals.shape != (batch, plan.n_inputs):
            raise ValueError(
                f"arrival rows have shape {arrivals.shape}, "
                f"plan expects ({batch}, {plan.n_inputs})"
            )
        n_nets = len(plan.nets)
        values = np.empty((n_nets + 1, batch), dtype=np.float64)
        values[: plan.n_inputs] = arrivals.T
        values[self._constants] = NEG_INF
        values[n_nets] = NEG_INF
        maximum, minimum = np.maximum, np.minimum
        for srcs, slots, delay, width, nodes, out in self._levels:
            terms = values.take(srcs, axis=0)
            terms += delay if table is None else table.take(slots, axis=0)
            terms = maximum.reduce(terms.reshape(width, -1, batch), axis=0)
            if nodes is not None:
                terms = minimum.reduceat(terms, nodes, axis=0)
            values[out] = terms
        return values[:n_nets].T


def _group_levels(np, plan: CompiledGraph):
    """``(levels, constants)`` of :class:`NumpyExecutor`.

    Per level, in its padded entry order (slot ``[j, t]`` is entry
    ``j`` of the level's tuple ``t``, or the pad, index ``n_entries``,
    past the tuple's last entry): the entry sources, the entry indices
    (``slots``) and the plan's delays as a column; then the width, the
    node starts in the level's tuples (None when every node has one
    tuple) and the output rows (a slice when they are contiguous).
    ``constants`` are the rows of zero-tuple (constant ``-inf``) nodes.

    The per-entry temporaries are int32 and freed before the next are
    made: a server builds executors in its worker thread, whose freed
    memory stays resident.
    """
    n_in = plan.n_inputs
    n_entries = plan.n_entries
    depth = plan.n_levels
    node_level = np.asarray(plan.node_level, dtype=np.intp)
    n_tuples = np.diff(np.asarray(plan.tup_start, dtype=np.intp))
    constants = n_in + np.flatnonzero(n_tuples == 0)
    if not depth:
        return [], constants
    ent_start = np.asarray(plan.ent_start, dtype=np.intp)
    tup_level = np.repeat(node_level, n_tuples)
    # Stable sorts keep plan order inside a level.
    node_perm = np.argsort(node_level, kind="stable")
    tup_perm = np.argsort(tup_level, kind="stable")
    first = ent_start[:-1][tup_perm]
    widths = np.diff(ent_start)[tup_perm]
    n_tuples = n_tuples[node_perm]
    node_first = np.cumsum(n_tuples) - n_tuples
    # Level d (1..depth) owns tuples tup_hi[d-1]:tup_hi[d] and nodes
    # node_hi[d-1]:node_hi[d] in sorted order; every level holds one.
    tup_hi = np.cumsum(np.bincount(tup_level, minlength=depth + 1))
    node_hi = np.cumsum(np.bincount(node_level, minlength=depth + 1))
    level_tuples = np.diff(tup_hi)
    level_width = np.maximum.reduceat(widths, tup_hi[:-1])
    slot_hi = np.cumsum(level_width * level_tuples)
    slot_lo = slot_hi - level_width * level_tuples
    # Entry j of a level's tuple t goes to slot lo + j * tuples + t.
    d = tup_level[tup_perm] - 1
    base = (slot_lo[d] + np.arange(len(d)) - tup_hi[d]).astype(np.int32)
    tup = np.repeat(np.arange(len(d), dtype=np.int32), widths)
    j = np.arange(n_entries, dtype=np.int32)
    j -= (np.cumsum(widths) - widths).astype(np.int32)[tup]
    pos = level_tuples[d].astype(np.int32)[tup]
    pos *= j
    pos += base[tup]
    j += first.astype(np.int32)[tup]
    del tup
    slots = np.full(int(slot_hi[-1]), n_entries, dtype=np.int32)
    slots[pos] = j
    del pos, j
    # One gather for every level's sources and delays: one allocation
    # each, not one per level.
    srcs = np.fromiter(
        chain(plan.ent_src, (len(plan.nets),)), np.intp, n_entries + 1
    )[slots]
    delay = np.fromiter(
        chain(plan.ent_delay, (0.0,)), np.float64, n_entries + 1
    )[slots, None]
    out_first = (n_in + node_perm[node_hi[:-1]]).tolist()
    out_last = (n_in + node_perm[node_hi[1:] - 1]).tolist()
    levels = []
    for d, (lo, hi, width, t_lo, t_hi, n_lo, n_hi) in enumerate(zip(
        slot_lo.tolist(), slot_hi.tolist(), level_width.tolist(),
        tup_hi.tolist(), tup_hi[1:].tolist(),
        node_hi.tolist(), node_hi[1:].tolist(),
    )):
        nodes = None
        if t_hi - t_lo != n_hi - n_lo:
            nodes = node_first[n_lo:n_hi] - t_lo
        out = slice(out_first[d], out_last[d] + 1)
        if out_last[d] - out_first[d] != n_hi - n_lo - 1:
            out = n_in + node_perm[n_lo:n_hi]
        levels.append(
            (srcs[lo:hi], slots[lo:hi], delay[lo:hi], width, nodes, out)
        )
    return levels, constants


def propagate_batch(
    plan: CompiledGraph,
    rows: Sequence[Sequence[float]],
    cache: dict | None = None,
    tracer: Tracer = NULL_TRACER,
    delays=None,
    columns: Sequence[int] | None = None,
):
    """Evaluate arrival rows against a plan, picking an executor.

    The executor is :func:`~repro.kernel.backend.pick_backend` of the
    plan's tuples and levels and the row count: numpy once tuples × rows
    reach :data:`~repro.kernel.backend.NUMPY_MIN_LEVEL_TUPLES` per level
    when available, pure python otherwise.  Rows are evaluated in chunks of
    :data:`CHUNK` scenarios.  ``cache`` (a dict owned by the
    caller, keyed by executor name) reuses executors across calls so
    repeated evaluation of one plan skips the per-level array setup.
    ``delays`` optionally overrides the plan's entry delays — one
    ``(n_entries,)`` vector shared by the whole batch (a corner), or
    one vector per scenario (parametric/Monte-Carlo families); per-row
    delays are chunked in lockstep with ``rows``.

    Returns the executor's matrix, one row per scenario aligned with
    ``plan.nets``: a numpy float64 array, or the python executor's
    list of lists of floats (``[]`` for no rows).  ``columns`` (net
    positions) keeps only those columns, in that order, of each chunk,
    so a large batch never holds every net of every row at once.

    With tracing on, each call emits one ``kernel-propagate`` event
    (chosen backend, scenario count, scenarios/second) and feeds the
    ``kernel.batch_seconds`` histogram; the record carries no phase —
    callers' spans already own this wall time.
    """
    rows = list(rows)
    if not rows:
        return []
    form = delay_form(delays)
    if form == "rows" and len(delays) != len(rows):
        raise ValueError(
            f"{len(delays)} delay rows for {len(rows)} scenarios"
        )
    chosen = pick_backend(plan.n_tuples, plan.n_levels, len(rows))
    executor = None if cache is None else cache.get(chosen)
    if executor is None:
        executor = (
            NumpyExecutor(plan)
            if chosen == "numpy"
            else PythonExecutor(plan)
        )
        if cache is not None:
            cache[chosen] = executor
    start_t = time.perf_counter() if tracer.enabled else 0.0
    chunk = CHUNK
    parts = []
    for start in range(0, len(rows), chunk):
        end = start + chunk
        part = executor.propagate(
            rows[start:end],
            delays=delays[start:end] if form == "rows" else delays,
        )
        if columns is not None:
            part = (
                part[:, columns]
                if chosen == "numpy"
                else [[row[i] for i in columns] for row in part]
            )
        parts.append(part)
    if len(parts) == 1:
        out = parts[0]
    elif chosen == "numpy":
        out = numpy_or_none().concatenate(parts)
    else:
        out = [row for part in parts for row in part]
    if tracer.enabled:
        seconds = time.perf_counter() - start_t
        tracer.event(
            "kernel-propagate",
            seconds=seconds,
            graph=plan.name,
            backend=chosen,
            scenarios=len(rows),
            throughput=(len(rows) / seconds if seconds > 0.0 else 0.0),
        )
        tracer.count("kernel.batches")
        tracer.count("kernel.scenarios", len(rows))
        tracer.observe("kernel.batch_seconds", seconds)
    return out
