"""The *execute* half of the kernel: batched min-max propagation.

Evaluates a :class:`~repro.kernel.plan.CompiledGraph` for a batch of
arrival-time scenarios at once.  Two executors share the plan:

* :class:`NumpyExecutor` — used whenever numpy is installed.  A few
  rows without a delay override take the *walk*: one numpy pass over
  every entry that reads a primary input, a scalar walk over the
  *spine* (the nodes some entry reads: csa2048.8's carry chain, 255 of
  2,304 nodes) and one numpy pass over the other nodes.  Wide batches
  and delay overrides take the *level loop*, one op sequence per
  topological level.
* :class:`PythonExecutor` — the same flat-array walk in pure python,
  used when numpy is absent.

Both are bit-identical to a per-node
:meth:`~repro.core.timing_model.TimingModel.stable_time` walk: identical
float64 additions, maxima, and minima over identical values (addition and
max/min are order-insensitive for non-NaN floats, the compiler rejects
NaN/``+inf`` delays, and both executors refuse a NaN arrival).
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Any, NamedTuple, Sequence

from repro.kernel.backend import numpy_or_none, pick_backend, pick_mode
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
        A NaN arrival is an :class:`~repro.errors.AnalysisError` naming
        the input; ``±inf`` keep their meanings.
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
            # A NaN makes the sum NaN; so do +inf and -inf together,
            # which the scan then lets through.
            total = sum(values)
            if total != total:
                from repro.core.xbd0 import reject_nan_arrivals

                reject_nan_arrivals(dict(zip(plan.nets, values)))
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
    """Numpy-vectorized executor: a walk for few rows, else a level loop.

    :func:`~repro.kernel.backend.pick_mode` picks the mode per batch.
    The *walk* serves a few rows without a delay override, in three
    passes.  The *input pass* takes, for every row at once, the max over
    each tuple's entries that read a primary input (one gather, one add,
    one max; tuples are padded to the widest, at least one slot, with
    entries that read an always-``-inf`` column and add 0.0).  The
    *spine walk* visits the spine (the nodes some entry reads) per row
    in plan order, in scalar Python: each tuple starts from its
    input-pass maximum and folds in only its entries that read a node.
    The *sink pass* evaluates every other node (the sinks: primary
    outputs and dead ends), which only the spine feeds, in one padded
    pass.  A constant (zero-tuple) node is given one tuple of only the
    pad, whose max and min are ``-inf``.

    The *level loop* (:attr:`~repro.kernel.plan.CompiledGraph.node_level`)
    covers every scenario in the batch one topological level at a time.
    Its matrix is ``(nets + 1, scenarios)``: one row per net, whose
    values for the whole batch are contiguous, plus a last row held at
    ``-inf``.  Each level's tuples are padded to the level's widest with
    entries that read that row and add 0.0, laid out entry position by
    entry position, so the max over each tuple's entries is one
    reduction over whole rows.  A delay override is read through an
    entry table (see :meth:`_table`), so a per-scenario one is
    transposed once and never copied into the padded order.

    Each mode's arrays are built by the first batch that takes it and
    published whole, so a handle holds only the modes it ran.
    """

    def __init__(self, plan: CompiledGraph):
        np = numpy_or_none()
        if np is None:  # pragma: no cover - guarded by pick_backend
            raise RuntimeError("numpy is not installed")
        self._np = np
        self.plan = plan
        self._n_entries = plan.n_entries
        #: ``plan.ent_src`` as an array: both modes' arrays are built
        #: from it.
        self._src = np.fromiter(plan.ent_src, np.intp, plan.n_entries)
        read = _read_nodes(np, plan, self._src)
        tuples = np.diff(np.asarray(plan.tup_start, dtype=np.intp))
        #: Tuples the walk visits per row in scalar Python (a constant
        #: node on the spine counts one).
        self.spine_tuples = int(np.maximum(tuples, 1)[read].sum())
        #: The walk's :class:`_Walk` and the level loop's ``(levels,
        #: constants)`` (:func:`_group_levels`), once built.
        self._walk = None
        self._levels = None

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

        The array is ``(scenarios, nets)``, a view of the executor's
        matrix; otherwise the contract is the python path's.

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
        # The max of a batch is NaN exactly when one arrival is.
        top = arrivals.max(initial=NEG_INF)
        if top != top:
            from repro.core.xbd0 import reject_nan_arrivals

            for row in arrivals.tolist():
                reject_nan_arrivals(dict(zip(plan.nets, row)))
        if table is None and pick_mode(
            self.spine_tuples, plan.n_levels, batch
        ) == "walk":
            return self._run_walk(arrivals)
        return self._run_levels(arrivals, table)

    def _run_walk(self, arrivals):
        """The walk's three passes; ``(scenarios, nets)``."""
        np = self._np
        walk = self._walk
        if walk is None:
            # Published only once whole: other threads read it unlocked.
            walk = self._walk = _plan_walk(np, self.plan, self._src)
        batch, n_in = arrivals.shape
        n_nets = len(self.plan.nets)
        values = np.empty((batch, n_nets + 1))
        values[:, :n_in] = arrivals
        values[:, n_nets] = NEG_INF
        first = _max_pass(np, values, *walk.inputs)
        n_spine = self.spine_tuples
        if n_spine:
            values[:, walk.spine_nets] = _walk_spine(
                walk.program, first[:, :n_spine].tolist()
            )
        tuples = first[:, n_spine:]
        if walk.sinks[0]:
            node_fed = _max_pass(np, values, *walk.sinks)
            tuples = np.maximum(node_fed, tuples, out=node_fed)
        if walk.sink_nodes is not None:
            tuples = np.minimum.reduceat(tuples, walk.sink_nodes, axis=1)
        values[:, walk.sink_nets] = tuples
        return values[:, :n_nets]

    def _run_levels(self, arrivals, table):
        """The level loop; ``(scenarios, nets)``."""
        np = self._np
        plan = self.plan
        built = self._levels
        if built is None:
            # Published only once whole: other threads read it unlocked.
            built = self._levels = _group_levels(np, plan, self._src)
        levels, constants = built
        batch = len(arrivals)
        n_nets = len(plan.nets)
        values = np.empty((n_nets + 1, batch), dtype=np.float64)
        values[: plan.n_inputs] = arrivals.T
        values[constants] = NEG_INF
        values[n_nets] = NEG_INF
        maximum, minimum = np.maximum, np.minimum
        for srcs, slots, delay, width, nodes, out in levels:
            terms = values.take(srcs, axis=0)
            terms += delay if table is None else table.take(slots, axis=0)
            terms = maximum.reduce(terms.reshape(width, -1, batch), axis=0)
            if nodes is not None:
                terms = minimum.reduceat(terms, nodes, axis=0)
            values[out] = terms
        return values[:n_nets].T


def _walk_spine(program, firsts) -> list[list[float]]:
    """The spine walk: spine node values per row, in spine order.

    ``program`` holds one ``(feeds, last)`` step per spine tuple, node
    by node in plan order: the tuple's ``(spine position, delay)``
    entries that read a node, and whether it is its node's last tuple.
    ``firsts`` holds per row the input-pass maximum of every spine
    tuple, in the same order.  The comparisons are
    :class:`PythonExecutor`'s.
    """
    out = []
    for first in firsts:
        values: list[float] = []
        push = values.append
        best = POS_INF
        for (feeds, last), worst in zip(program, first):
            for s, d in feeds:
                term = values[s] + d
                if term > worst:
                    worst = term
            if worst < best:
                best = worst
            if last:
                push(best)
                best = POS_INF
        out.append(values)
    return out


class _Walk(NamedTuple):
    """The arrays of the walk's three passes (see :class:`NumpyExecutor`).

    Segments are the tuples in pass order: the spine nodes' tuples in
    plan order, then the sinks' (a constant node counts one).  A pass
    is ``(width, sources, delays)`` of :func:`_max_pass`.
    """

    #: Input pass: every segment's entries that read a primary input,
    #: at least one slot per segment.
    inputs: tuple
    #: Spine walk: see :func:`_walk_spine`; ``spine_nets`` are the
    #: spine nodes' columns (see :func:`_columns`).
    program: tuple
    spine_nets: Any
    #: Sink pass: the sink segments' entries that read a node (width 0
    #: when none does); ``sink_nodes`` the node starts among the sink
    #: segments (None when every sink has one); ``sink_nets`` the
    #: sinks' columns.
    sinks: tuple
    sink_nodes: Any
    sink_nets: Any


def _read_nodes(np, plan: CompiledGraph, src):
    """Per node, whether some entry reads it (the spine)."""
    read = np.zeros(plan.n_nodes, dtype=bool)
    read[src[src >= plan.n_inputs] - plan.n_inputs] = True
    return read


def _max_pass(np, values, width, src, delay):
    """Per segment of a padded pass and row of ``values``, the max over
    the segment's entries: ``(rows, segments)``.  Slot ``[j, s]`` (at
    ``j * segments + s``) of ``src`` and ``delay`` is the segment's
    ``j``-th entry, or a pad reading the ``-inf`` column and adding
    0.0."""
    terms = values.take(src, axis=1)
    terms += delay
    if width > 1:
        terms = np.maximum.reduce(
            terms.reshape(len(values), width, -1), axis=1
        )
    return terms


def _plan_walk(np, plan: CompiledGraph, src) -> _Walk:
    """The :class:`_Walk` of ``plan`` (``src``: its entry sources as an
    array), built without a Python loop over its entries (only over the
    spine's tuples); the per-entry temporaries are int32 and freed as
    they go."""
    n_in = plan.n_inputs
    n_nets = len(plan.nets)
    n_nodes = plan.n_nodes
    delay = np.fromiter(plan.ent_delay, np.float64, plan.n_entries)
    tup_start = np.asarray(plan.tup_start, dtype=np.intp)
    n_tup = np.diff(tup_start)
    widths = np.diff(np.asarray(plan.ent_start, dtype=np.intp))
    fed = src >= n_in
    read = _read_nodes(np, plan, src)
    spine = np.flatnonzero(read)
    order = np.concatenate([spine, np.flatnonzero(~read)])
    rank = np.empty(n_nodes, dtype=np.intp)
    rank[order] = np.arange(n_nodes)
    segs = np.maximum(n_tup, 1)[order]
    seg_hi = np.cumsum(segs)
    seg_lo = seg_hi - segs
    n_seg = int(seg_hi[-1]) if n_nodes else 0
    n_spine_seg = int(seg_hi[len(spine) - 1]) if len(spine) else 0
    # Segment of each entry: its node's first segment plus its tuple's
    # place in the node.
    tup_node = np.repeat(np.arange(n_nodes, dtype=np.int32), n_tup)
    ent_tup = np.repeat(np.arange(plan.n_tuples, dtype=np.int32), widths)
    tup_seg = (
        seg_lo[rank[tup_node]] + np.arange(plan.n_tuples)
        - tup_start[:-1][tup_node]
    ).astype(np.int32)
    del tup_node
    ent_seg = tup_seg[ent_tup]
    del tup_seg

    def padded(pick, lo, hi, least):
        """The pass over segments ``lo:hi`` of the entries ``pick``
        selects (in plan order), at least ``least`` slots wide."""
        idx = np.flatnonzero(pick)
        tup = ent_tup[idx]
        count = np.bincount(tup, minlength=plan.n_tuples)
        # Slot j * segments + segment, where j is the rank in its tuple.
        slot = np.arange(len(idx))
        slot -= (np.cumsum(count) - count)[tup]
        del tup, count
        width = max(least, int(slot.max()) + 1 if len(idx) else 0)
        slot *= hi - lo
        slot += ent_seg[idx]
        slot -= lo
        pass_src = np.full(width * (hi - lo), n_nets, dtype=np.intp)
        pass_src[slot] = src[idx]
        pass_delay = np.zeros(len(pass_src))
        pass_delay[slot] = delay[idx]
        return width, pass_src, pass_delay

    inputs = padded(~fed, 0, n_seg, 1)
    # Spine walk: plan order keeps each spine tuple's entries together
    # and the tuples in segment order.
    idx = np.flatnonzero(fed & (ent_seg < n_spine_seg))
    feeds = list(zip(rank[src[idx] - n_in].tolist(), delay[idx].tolist()))
    ends = np.cumsum(
        np.bincount(ent_seg[idx], minlength=n_spine_seg)
    ).tolist()
    last = np.zeros(n_spine_seg, dtype=bool)
    last[seg_hi[: len(spine)] - 1] = True
    program = tuple(zip(
        [feeds[lo:hi] for lo, hi in zip([0, *ends], ends)], last.tolist()
    ))
    sinks = padded(fed & (ent_seg >= n_spine_seg), n_spine_seg, n_seg, 0)
    sink_segs = segs[len(spine):]
    return _Walk(
        inputs=inputs,
        program=program,
        spine_nets=_columns(n_in + spine),
        sinks=sinks,
        sink_nodes=(
            np.cumsum(sink_segs) - sink_segs
            if (sink_segs > 1).any() else None
        ),
        sink_nets=_columns(n_in + order[len(spine):]),
    )


def _columns(nets):
    """Ascending net positions, as a slice when they are contiguous (a
    store through a slice is about 5x faster than through an index)."""
    if len(nets) and nets[-1] - nets[0] == len(nets) - 1:
        return slice(int(nets[0]), int(nets[-1]) + 1)
    return nets


def _group_levels(np, plan: CompiledGraph, src):
    """``(levels, constants)`` of :class:`NumpyExecutor` (``src``: the
    plan's entry sources as an array).

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
    srcs = np.append(src, len(plan.nets))[slots]
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

    The executor is :func:`~repro.kernel.backend.pick_backend`'s: numpy
    whenever it is installed (which picks its walk or its level loop per
    chunk, :func:`~repro.kernel.backend.pick_mode`), pure python
    otherwise.  Rows are evaluated in chunks of :data:`CHUNK` scenarios.
    A NaN arrival is an :class:`~repro.errors.AnalysisError` naming the
    input.  ``cache`` (a dict owned by the caller, keyed by executor
    name) reuses executors across calls so repeated evaluation of one
    plan skips the array setup.
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
    chosen = pick_backend()
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
